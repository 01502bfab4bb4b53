package transducer

import (
	"strings"
	"testing"

	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// Theorem 5.8 / Example 5.4, exhaustively: the policy-aware
// open-triangle program computes the query on EVERY message schedule,
// not just the sampled seeds — the quantifier the theorem actually
// states.
func TestExploreOpenTriangleAllSchedules(t *testing.T) {
	d := rel.NewDict()
	q := openTriangles(d)
	g := rel.MustInstance(d, "E(a,b)", "E(b,c)", "E(c,a)", "E(b,d)")
	want := q(g)
	if want.Len() == 0 {
		t.Fatal("bad setup: no open triangles")
	}
	for _, p := range []int{2, 3} {
		pol := &policy.Hash{Nodes: p}
		n := New(p, func() Program { return OpenTriangle() }, WithPolicy(pol))
		if err := n.LoadPolicy(g, pol); err != nil {
			t.Fatal(err)
		}
		res, err := Explore(n, 2_000_000)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.Quiescent == 0 {
			t.Fatalf("p=%d: no quiescent state reached", p)
		}
		if !res.Deterministic() {
			t.Fatalf("p=%d: %d distinct outputs across schedules", p, len(res.Outputs))
		}
		if res.Outputs[0] != want.String() {
			t.Fatalf("p=%d: exhaustive output %q, want %q", p, res.Outputs[0], want.String())
		}
		t.Logf("p=%d: states=%d transitions=%d quiescent=%d memoHits=%d sleepPrunes=%d",
			p, res.States, res.Transitions, res.Quiescent, res.MemoHits, res.SleepPrunes)
		if p == 3 && (res.MemoHits == 0 || res.SleepPrunes == 0) {
			t.Errorf("p=3: reductions inactive (memoHits=%d sleepPrunes=%d)", res.MemoHits, res.SleepPrunes)
		}
	}
}

// Theorem 5.12, exhaustively: the domain-guided disjoint-complete
// strategy computes ¬TC on every schedule, including the protocol's
// own request/transfer/done races.
func TestExploreNotTCAllSchedules(t *testing.T) {
	q := Query(notTC)
	d := rel.NewDict()
	// Two disjoint components each: a 2-cycle plus a self-loop for
	// p=2, two self-loops for p=3 (the third node owns no value and
	// exercises the pure-consumer corner of the protocol). Larger
	// instances explode combinatorially; the SCHED experiment runs a
	// 46k-state exploration outside the test budget.
	instances := map[int]*rel.Instance{
		2: rel.MustInstance(d, "E(0,1)", "E(1,0)", "E(2,2)"),
		3: rel.MustInstance(d, "E(3,3)", "E(4,4)"),
	}
	for _, p := range []int{2, 3} {
		g := instances[p]
		want := q(g)
		if want.Len() == 0 {
			t.Fatal("bad setup: ¬TC empty")
		}
		pol := &policy.DomainGuided{Nodes: p, DefaultWidth: 1}
		n := New(p, func() Program { return &DisjointComplete{Q: q} }, WithPolicy(pol))
		if err := n.LoadPolicy(g, pol); err != nil {
			t.Fatal(err)
		}
		res, err := Explore(n, 2_000_000)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !res.Deterministic() {
			t.Fatalf("p=%d: %d distinct outputs across schedules", p, len(res.Outputs))
		}
		if res.Outputs[0] != want.String() {
			t.Fatalf("p=%d: exhaustive output %q, want %q", p, res.Outputs[0], want.String())
		}
		t.Logf("p=%d: states=%d transitions=%d quiescent=%d memoHits=%d sleepPrunes=%d",
			p, res.States, res.Transitions, res.Quiescent, res.MemoHits, res.SleepPrunes)
	}
}

// Example 5.1(2), exhaustively: naive broadcast on the non-monotone
// open-triangle query is unsound on EVERY schedule of the closed
// triangle (each node misses its closing edge at Start), and the
// exact spurious output depends on the schedule — the explorer
// witnesses both facts rather than sampling them.
func TestExploreNaiveBroadcastUnsoundnessWitness(t *testing.T) {
	d := rel.NewDict()
	q := openTriangles(d)
	g := rel.MustInstance(d, "E(0,1)", "E(1,2)", "E(2,0)")
	want := q(g) // empty: the triangle is closed
	if want.Len() != 0 {
		t.Fatal("bad setup: expected no open triangles")
	}
	n := New(3, func() Program { return MonotoneBroadcast(q) })
	parts := []*rel.Instance{
		rel.MustInstance(d, "E(0,1)"),
		rel.MustInstance(d, "E(1,2)"),
		rel.MustInstance(d, "E(2,0)"),
	}
	if err := n.LoadParts(parts); err != nil {
		t.Fatal(err)
	}
	res, err := Explore(n, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range res.Outputs {
		if out == want.String() {
			t.Fatalf("some schedule produced the correct (empty) answer: naive broadcast would look sound")
		}
		if !strings.Contains(out, "H(") {
			t.Fatalf("quiescent output %q carries no spurious H fact", out)
		}
	}
	if res.Deterministic() {
		t.Errorf("expected schedule-dependent outputs, got a single one: %q", res.Outputs[0])
	}
	t.Logf("distinct wrong outputs=%d states=%d transitions=%d", len(res.Outputs), res.States, res.Transitions)
}

// The explorer must reject what it cannot exhaust faithfully.
func TestExploreRejections(t *testing.T) {
	d := rel.NewDict()
	q := triangles(d)
	g := rel.MustInstance(d, "E(a,b)", "E(b,c)", "E(c,a)")

	// Fault injectors own part of the schedule: rejected.
	n := New(2, func() Program { return MonotoneBroadcast(q) }, WithDuplication(1, 9))
	if err := n.LoadParts(hashParts(g, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := Explore(n, 1000); err == nil {
		t.Error("Explore accepted a fault-injecting network")
	}

	// Non-Forkable programs cannot be branched: rejected.
	n2 := New(2, func() Program { return unforkable{} })
	if _, err := Explore(n2, 1000); err == nil {
		t.Error("Explore accepted a non-Forkable program")
	}

	// The state bound must trip rather than hang.
	n3 := New(3, func() Program { return MonotoneBroadcast(q) })
	if err := n3.LoadParts(hashParts(g, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := Explore(n3, 2); err == nil {
		t.Error("Explore ignored maxStates")
	}
}

type unforkable struct{}

func (unforkable) Start(*Context)                            {}
func (unforkable) OnMessage(*Context, policy.Node, rel.Fact) {}

// The explorer agrees with plain runs: every scheduler in the matrix
// drives the network to one of the explorer's quiescent outputs.
func TestExploreCoversSchedulerMatrix(t *testing.T) {
	d := rel.NewDict()
	q := openTriangles(d)
	parts := []*rel.Instance{
		rel.MustInstance(d, "E(0,1)"),
		rel.MustInstance(d, "E(1,2)"),
		rel.MustInstance(d, "E(2,0)"),
	}
	n := New(3, func() Program { return MonotoneBroadcast(q) })
	if err := n.LoadParts(parts); err != nil {
		t.Fatal(err)
	}
	res, err := Explore(n, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	all := map[string]bool{}
	for _, out := range res.Outputs {
		all[out] = true
	}
	for name, sched := range SchedulerMatrix(3, 4) {
		m := New(3, func() Program { return MonotoneBroadcast(q) }, WithScheduler(sched))
		if err := m.LoadParts(parts); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if !all[m.Output().String()] {
			t.Errorf("scheduler %s reached output %q outside the explorer's set", name, m.Output().String())
		}
	}
}
