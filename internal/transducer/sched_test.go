package transducer

import (
	"fmt"
	"testing"

	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// The seeded-random scheduler must stay bit-compatible with the
// pre-extraction Network.Run: same seed, same schedule, same outputs.
// The table below was captured from the runtime BEFORE the Scheduler
// interface existed; this test pins the exact rand.Rand consumption
// sequence (Perm for the start order, two Intn per delivery, swap
// removal) so refactors cannot silently change historical runs.
//
// The workload is deliberately schedule-SENSITIVE: naive broadcast of
// the non-monotone open-triangle query on a closed triangle emits
// different spurious facts per node depending on delivery order, so
// any deviation in the schedule shows up as a different output.
func TestRandomSchedulerBitCompatible(t *testing.T) {
	d := rel.NewDict()
	q := openTriangles(d)
	golden := []struct {
		seed       int64
		n0, n1, n2 string
	}{
		{0, "{H(0,1,2)}", "{H(0,1,2)}", "{H(1,2,0)}"},
		{1, "{H(2,0,1)}", "{H(0,1,2)}", "{H(1,2,0)}"},
		{2, "{H(0,1,2)}", "{H(0,1,2)}", "{H(2,0,1)}"},
		{3, "{H(0,1,2)}", "{H(0,1,2)}", "{H(1,2,0)}"},
		{4, "{H(2,0,1)}", "{H(1,2,0)}", "{H(2,0,1)}"},
		{5, "{H(0,1,2)}", "{H(0,1,2)}", "{H(1,2,0)}"},
		{6, "{H(0,1,2)}", "{H(0,1,2)}", "{H(1,2,0)}"},
		{7, "{H(2,0,1)}", "{H(1,2,0)}", "{H(2,0,1)}"},
	}
	for _, g := range golden {
		n := New(3, func() Program { return MonotoneBroadcast(q) }, WithSeed(g.seed))
		parts := []*rel.Instance{
			rel.MustInstance(d, "E(0,1)"),
			rel.MustInstance(d, "E(1,2)"),
			rel.MustInstance(d, "E(2,0)"),
		}
		if err := n.LoadParts(parts); err != nil {
			t.Fatal(err)
		}
		st, err := n.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st.Sent != 6 || st.Delivered != 6 || st.Steps != 9 {
			t.Fatalf("seed %d: stats drifted: %+v", g.seed, st)
		}
		got := []string{
			n.NodeOutput(0).String(),
			n.NodeOutput(1).String(),
			n.NodeOutput(2).String(),
		}
		want := []string{g.n0, g.n1, g.n2}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("seed %d node %d: got %s, want %s (schedule not bit-compatible)",
					g.seed, i, got[i], want[i])
			}
		}
	}
}

// Converged-output goldens for the three Section 5 strategies,
// captured pre-refactor: same seeds must reproduce the same stats and
// per-node outputs exactly.
func TestGoldenStrategiesBitCompatible(t *testing.T) {
	d := rel.NewDict()
	g := workload.RandomGraph(9, 20, 7)

	wantMono := "{H(0,4,3), H(0,5,3), H(0,5,8), H(2,5,8), H(3,0,4), H(3,0,5), H(4,3,0), H(5,3,0), H(5,8,0), H(5,8,2), H(8,0,5), H(8,2,5)}"
	tri := triangles(d)
	for _, seed := range []int64{1, 42} {
		n := New(3, func() Program { return MonotoneBroadcast(tri) }, WithSeed(seed))
		pol := &policy.Hash{Nodes: 3}
		if err := n.LoadParts(policy.Distribute(pol, g)); err != nil {
			t.Fatal(err)
		}
		st, err := n.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st.Sent != 40 || st.ControlSent != 0 || st.Delivered != 40 || st.Steps != 43 {
			t.Fatalf("mono seed %d: stats drifted: %+v", seed, st)
		}
		for i := 0; i < 3; i++ {
			if out := n.NodeOutput(policy.Node(i)).String(); out != wantMono {
				t.Errorf("mono seed %d node %d: output drifted:\n got %s\nwant %s", seed, i, out, wantMono)
			}
		}
	}

	open := openTriangles(d)
	for _, seed := range []int64{1, 42} {
		n := New(4, func() Program { return &Coordinated{Q: open} }, WithSeed(seed))
		pol := &policy.Hash{Nodes: 4}
		if err := n.LoadParts(policy.Distribute(pol, g)); err != nil {
			t.Fatal(err)
		}
		st, err := n.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st.Sent != 72 || st.ControlSent != 12 || st.Delivered != 72 || st.Steps != 76 {
			t.Fatalf("coord seed %d: stats drifted: %+v", seed, st)
		}
		for i := 0; i < 4; i++ {
			if got := n.NodeOutput(policy.Node(i)).Len(); got != 33 {
				t.Errorf("coord seed %d node %d: %d output facts, want 33", seed, i, got)
			}
		}
	}

	pol := &policy.DomainGuided{Nodes: 3, DefaultWidth: 1}
	g3 := workload.ComponentsGraph(3, 3)
	n := New(3, func() Program { return &DisjointComplete{Q: notTC} }, WithSeed(5), WithPolicy(pol))
	if err := n.LoadPolicy(g3, pol); err != nil {
		t.Fatal(err)
	}
	st, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent != 108 || st.ControlSent != 72 || st.Delivered != 108 || st.Steps != 111 {
		t.Fatalf("disjoint seed 5: stats drifted: %+v", st)
	}
	for i := 0; i < 3; i++ {
		if got := n.NodeOutput(policy.Node(i)).Len(); got != 54 {
			t.Errorf("disjoint seed 5 node %d: %d output facts, want 54", i, got)
		}
	}
}

// Every scheduler in the matrix drives every Section 5 strategy to
// the centralized answer: the theorems' schedule quantifier, sampled
// across qualitatively different adversaries rather than seeds.
func TestSchedulerMatrixCorrectness(t *testing.T) {
	d := rel.NewDict()
	tri := triangles(d)
	g := workload.RandomGraph(9, 20, 7)
	wantTri := tri(g)

	q := Query(notTC)
	g3 := workload.ComponentsGraph(3, 3)
	wantNTC := q(g3)

	for name, mkSched := range schedulerFactories(4, 13) {
		t.Run(name, func(t *testing.T) {
			// Monotone broadcast.
			n := New(4, func() Program { return MonotoneBroadcast(tri) }, WithScheduler(mkSched()))
			if err := n.LoadParts(hashParts(g, 4)); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Run(); err != nil {
				t.Fatal(err)
			}
			if !n.Output().Equal(wantTri) {
				t.Errorf("monotone broadcast wrong under %s", name)
			}

			// Coordinated protocol.
			open := openTriangles(d)
			n2 := New(4, func() Program { return &Coordinated{Q: open} }, WithScheduler(mkSched()))
			if err := n2.LoadParts(hashParts(g, 4)); err != nil {
				t.Fatal(err)
			}
			if _, err := n2.Run(); err != nil {
				t.Fatal(err)
			}
			if !n2.Output().Equal(open(g)) {
				t.Errorf("coordinated protocol wrong under %s", name)
			}

			// Policy-aware open triangle.
			pol := &policy.Hash{Nodes: 4}
			n3 := New(4, func() Program { return OpenTriangle() }, WithScheduler(mkSched()), WithPolicy(pol))
			if err := n3.LoadPolicy(g, pol); err != nil {
				t.Fatal(err)
			}
			if _, err := n3.Run(); err != nil {
				t.Fatal(err)
			}
			if !n3.Output().Equal(open(g)) {
				t.Errorf("open-triangle program wrong under %s", name)
			}

			// Domain-guided ¬TC.
			dgpol := &policy.DomainGuided{Nodes: 4, DefaultWidth: 1}
			n4 := New(4, func() Program { return &DisjointComplete{Q: q} }, WithScheduler(mkSched()), WithPolicy(dgpol))
			if err := n4.LoadPolicy(g3, dgpol); err != nil {
				t.Fatal(err)
			}
			if _, err := n4.Run(); err != nil {
				t.Fatal(err)
			}
			if !n4.Output().Equal(wantNTC) {
				t.Errorf("disjoint-complete wrong under %s", name)
			}
		})
	}
}

// schedulerFactories mirrors SchedulerMatrix but returns constructors
// (schedulers are stateful: one instance must not be shared between
// runs).
func schedulerFactories(p int, seed int64) map[string]func() Scheduler {
	m := map[string]func() Scheduler{
		"random":    func() Scheduler { return NewRandom(seed) },
		"fifo":      func() Scheduler { return &FIFO{} },
		"lifo":      func() Scheduler { return &LIFO{} },
		"adversary": func() Scheduler { return GreedyAdversary{} },
	}
	for i := 0; i < p; i++ {
		v := policy.Node(i)
		m[fmt.Sprintf("starve%d", i)] = func() Scheduler { return &Starve{Victim: v} }
	}
	return m
}

// Deterministic schedulers are reproducible run-to-run, and the
// random scheduler is reproducible per seed.
func TestSchedulersDeterministic(t *testing.T) {
	d := rel.NewDict()
	q := openTriangles(d)
	run := func(mk func() Scheduler) string {
		n := New(3, func() Program { return MonotoneBroadcast(q) }, WithScheduler(mk()))
		parts := []*rel.Instance{
			rel.MustInstance(d, "E(0,1)"),
			rel.MustInstance(d, "E(1,2)"),
			rel.MustInstance(d, "E(2,0)"),
		}
		if err := n.LoadParts(parts); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
		out := ""
		for i := 0; i < 3; i++ {
			out += n.NodeOutput(policy.Node(i)).String() + "|"
		}
		return out
	}
	for name, mk := range schedulerFactories(3, 99) {
		if a, b := run(mk), run(mk); a != b {
			t.Errorf("scheduler %s not reproducible: %s vs %s", name, a, b)
		}
	}
}
