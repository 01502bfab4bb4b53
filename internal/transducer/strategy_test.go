package transducer

import (
	"errors"
	"testing"

	"mpclogic/internal/mono"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// The table is the theorem. Every row's program computes its query
// under the row's working policy on every scheduler of the matrix,
// with duplication and a crash-restart of node 0 thrown in; the three
// coordination-free rows also compute it on their ideal
// distribution without reading a message (the definition), and the
// fallback does not. Graphs stay at six values: the distinct-complete
// rule enumerates 2^|adom| value sets per state change.
func TestStrategyTableIsTheTheorem(t *testing.T) {
	schema := rel.Schema{"E": 2}
	for _, row := range Strategies {
		q := row.Witness
		if q == nil {
			q = mono.OpenTriangles // the fallback serves any query
		}
		for _, p := range []int{1, 2, 4} {
			for seed := int64(0); seed < 8; seed++ {
				g := workload.RandomGraph(6, 8, seed)
				want := q(g)
				for name := range SchedulerMatrix(p, seed) {
					n, err := Load(row.Program(q, schema), row.Policy(p), g, WithScheduler(SchedulerMatrix(p, seed)[name]),
						WithDuplication(1, seed), WithCrashRestart(0, 3))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := n.Run(); err != nil {
						t.Fatal(err)
					}
					if !n.Output().Equal(want) {
						t.Errorf("%s p=%d seed=%d %s: got %v, want %v", row.Class, p, seed, name, n.Output(), want)
					}
				}
				n, err := Load(row.Program(q, schema), row.Ideal(p), g, WithSeed(seed))
				if err != nil {
					t.Fatal(err)
				}
				st := n.RunSilent()
				free := st.Delivered == 0 && n.Output().Equal(want)
				switch {
				case row.Class != mono.None && !free:
					t.Errorf("%s p=%d seed=%d: not coordination-free on the ideal distribution", row.Class, p, seed)
				case row.Class == mono.None && p > 1 && want.Len() > 0 && free:
					t.Errorf("fallback p=%d seed=%d: answered without reading a message", p, seed)
				}
			}
		}
	}
}

// The negatives the paper states: a row cannot be simplified into the
// one above it. Row M's program on the open-triangle witness gives
// different answers on different schedules (Example 5.1(2)), and row
// Mdistinct's on ¬TC outputs NTC(0,2) for the path 0→1→2 with loops
// at its ends, judging from the complete value set {0,2} alone.
func TestStrategyRowsAreNotInterchangeable(t *testing.T) {
	d := rel.NewDict()
	n := New(3, StrategyFor(mono.M).Program(mono.OpenTriangles, nil))
	if err := n.LoadParts([]*rel.Instance{
		rel.MustInstance(d, "E(0,1)"), rel.MustInstance(d, "E(1,2)"), rel.MustInstance(d, "E(2,0)"),
	}); err != nil {
		t.Fatal(err)
	}
	res, err := Explore(n, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) < 2 {
		t.Errorf("naive broadcast of open-triangle: %d distinct outputs over all schedules, want ≥ 2", len(res.Outputs))
	}

	row := StrategyFor(mono.Mdistinct)
	path := rel.MustInstance(d, "E(0,1)", "E(1,2)", "E(0,0)", "E(2,2)")
	n, err = Load(row.Program(mono.NotTC, rel.Schema{"E": 2}), row.Policy(2), path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Output().SubsetOf(mono.NotTC(path)) {
		t.Errorf("distinct-complete on ¬TC stayed sound: %v", n.Output())
	}
}

// Why Example 5.4's rule and the generic distinct-complete rule may
// share a body: on the open-triangle query they reach the same output
// at quiescence, whatever the graph, total policy and schedule.
func TestOpenTriangleRuleIsDistinctComplete(t *testing.T) {
	schema := rel.Schema{"E": 2}
	for seed := int64(0); seed < 50; seed++ {
		g := workload.RandomGraph(6, 9, seed)
		p := 2 + int(seed%3)
		var pol policy.Policy = &policy.Hash{Nodes: p, Seed: uint64(seed)}
		if seed%5 == 4 {
			pol = &policy.Replicate{Nodes: p}
		}
		run := func(b *Broadcast) *rel.Instance {
			n, err := Load(b.Factory(), pol, g, WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			st, err := n.Run()
			if err != nil {
				t.Fatal(err)
			}
			if st.ControlSent != 0 {
				t.Errorf("seed %d: %d control messages", seed, st.ControlSent)
			}
			return n.Output()
		}
		verbatim, generic := run(OpenTriangle()), run(DistinctComplete(mono.OpenTriangles, schema))
		if !verbatim.Equal(generic) || !generic.Equal(mono.OpenTriangles(g)) {
			t.Errorf("seed %d (%T, p=%d): Example 5.4 %v, distinct-complete %v, Q(I) %v",
				seed, pol, p, verbatim, generic, mono.OpenTriangles(g))
		}
	}
}

// Past twelve values the distinct-complete rule stops enumerating value
// sets and greedily shrinks the active domain to one complete set; once
// every absence is published that set is the whole domain.
func TestDistinctCompleteGreedyPastTwelveValues(t *testing.T) {
	g := workload.CycleGraph(13)
	row := StrategyFor(mono.Mdistinct)
	n, err := Load(row.Program(mono.OpenTriangles, rel.Schema{"E": 2}), row.Policy(2), g, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if want := mono.OpenTriangles(g); want.Len() != 13 || !n.Output().Equal(want) {
		t.Errorf("got %v, want the 13 open triangles %v", n.Output(), want)
	}
}

// A policy is named once: a network that declares one refuses to be
// loaded by another, whether or not the placement check would pass.
func TestLoadPolicyRefusesAnotherPolicy(t *testing.T) {
	g := workload.PathGraph(3)
	n := New(3, OpenTriangle().Factory(), WithPolicy(&policy.Hash{Nodes: 3}))
	var mismatch *PolicyMismatchError
	if err := n.LoadPolicy(g, &policy.Replicate{Nodes: 3}); !errors.As(err, &mismatch) {
		t.Fatalf("hash-aware network loaded by a replicate policy: err = %v, want *PolicyMismatchError", err)
	}
	if err := n.LoadPolicy(rel.NewInstance(), &policy.Replicate{Nodes: 3}); !errors.As(err, &mismatch) {
		t.Errorf("empty instance (placement trivially conforms): err = %v, want *PolicyMismatchError", err)
	}
	if err := n.LoadPolicy(g, &policy.Hash{Nodes: 3}); err != nil {
		t.Errorf("the declared policy, named again by value, was refused: %v", err)
	}
}
