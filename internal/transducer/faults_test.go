package transducer

import (
	"testing"

	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// The model of Ameloot-Neven-Van den Bussche allows messages to be
// duplicated arbitrarily: every Section 5 strategy must produce the
// centralized answer with duplication switched on. This is where the
// coordinated protocol's distinct-(origin,fact) counting earns its
// keep — a raw delivery counter would cross the announced threshold
// early and output garbage.
func TestStrategiesCorrectUnderDuplication(t *testing.T) {
	d := rel.NewDict()
	tri := triangles(d)
	open := openTriangles(d)
	g := workload.RandomGraph(9, 20, 7)
	q := Query(notTC)
	g3 := workload.ComponentsGraph(3, 3)

	for _, seed := range []int64{1, 2, 3} {
		dup := WithDuplication(2, seed*31+7)

		n := New(3, func() Program { return MonotoneBroadcast(tri) }, WithSeed(seed), dup)
		if err := n.LoadParts(hashParts(g, 3)); err != nil {
			t.Fatal(err)
		}
		st, err := n.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !n.Output().Equal(tri(g)) {
			t.Errorf("seed %d: monotone broadcast wrong under duplication", seed)
		}
		if st.Duplicated == 0 {
			t.Errorf("seed %d: duplication fault injected nothing", seed)
		}

		n2 := New(4, func() Program { return &Coordinated{Q: open} }, WithSeed(seed), WithDuplication(2, seed*31+7))
		if err := n2.LoadParts(hashParts(g, 4)); err != nil {
			t.Fatal(err)
		}
		if _, err := n2.Run(); err != nil {
			t.Fatal(err)
		}
		if !n2.Output().Equal(open(g)) {
			t.Errorf("seed %d: coordinated protocol wrong under duplication", seed)
		}

		pol := &policy.Hash{Nodes: 4}
		n3 := New(4, func() Program { return OpenTriangle() }, WithSeed(seed), WithDuplication(2, seed*31+7), WithPolicy(pol))
		if err := n3.LoadPolicy(g, pol); err != nil {
			t.Fatal(err)
		}
		if _, err := n3.Run(); err != nil {
			t.Fatal(err)
		}
		if !n3.Output().Equal(open(g)) {
			t.Errorf("seed %d: open-triangle program wrong under duplication", seed)
		}

		dgpol := &policy.DomainGuided{Nodes: 3, DefaultWidth: 1}
		n4 := New(3, func() Program { return &DisjointComplete{Q: q} }, WithSeed(seed), WithDuplication(2, seed*31+7), WithPolicy(dgpol))
		if err := n4.LoadPolicy(g3, dgpol); err != nil {
			t.Fatal(err)
		}
		if _, err := n4.Run(); err != nil {
			t.Fatal(err)
		}
		if !n4.Output().Equal(q(g3)) {
			t.Errorf("seed %d: disjoint-complete wrong under duplication", seed)
		}
	}
}

// Crash-restart of EVERY node in turn, mid-run: the crashed node
// reloads its durable fragment, loses its volatile state, re-runs
// Start, and peers assist. Every strategy must still converge to the
// centralized answer.
func TestStrategiesCorrectUnderCrashRestart(t *testing.T) {
	d := rel.NewDict()
	tri := triangles(d)
	open := openTriangles(d)
	g := workload.RandomGraph(9, 20, 7)
	q := Query(notTC)
	g3 := workload.ComponentsGraph(3, 3)

	for victim := 0; victim < 3; victim++ {
		for _, after := range []int{0, 5, 1 << 20} { // immediately, mid-run, at quiescence
			crash := func() Option { return WithCrashRestart(policy.Node(victim), after) }

			n := New(3, func() Program { return MonotoneBroadcast(tri) }, WithSeed(9), crash())
			if err := n.LoadParts(hashParts(g, 3)); err != nil {
				t.Fatal(err)
			}
			st, err := n.Run()
			if err != nil {
				t.Fatal(err)
			}
			if st.Crashes != 1 {
				t.Fatalf("victim %d after %d: %d crashes fired, want 1", victim, after, st.Crashes)
			}
			if !n.Output().Equal(tri(g)) {
				t.Errorf("victim %d after %d: monotone broadcast wrong under crash-restart", victim, after)
			}

			n2 := New(3, func() Program { return &Coordinated{Q: open} }, WithSeed(9), crash())
			if err := n2.LoadParts(hashParts(g, 3)); err != nil {
				t.Fatal(err)
			}
			if _, err := n2.Run(); err != nil {
				t.Fatal(err)
			}
			if !n2.Output().Equal(open(g)) {
				t.Errorf("victim %d after %d: coordinated protocol wrong under crash-restart", victim, after)
			}

			pol := &policy.Hash{Nodes: 3}
			n3 := New(3, func() Program { return OpenTriangle() }, WithSeed(9), crash(), WithPolicy(pol))
			if err := n3.LoadPolicy(g, pol); err != nil {
				t.Fatal(err)
			}
			if _, err := n3.Run(); err != nil {
				t.Fatal(err)
			}
			if !n3.Output().Equal(open(g)) {
				t.Errorf("victim %d after %d: open-triangle program wrong under crash-restart", victim, after)
			}

			dgpol := &policy.DomainGuided{Nodes: 3, DefaultWidth: 1}
			n4 := New(3, func() Program { return &DisjointComplete{Q: q} }, WithSeed(9), crash(), WithPolicy(dgpol))
			if err := n4.LoadPolicy(g3, dgpol); err != nil {
				t.Fatal(err)
			}
			if _, err := n4.Run(); err != nil {
				t.Fatal(err)
			}
			if !n4.Output().Equal(q(g3)) {
				t.Errorf("victim %d after %d: disjoint-complete wrong under crash-restart", victim, after)
			}
		}
	}
}

// Correlated failure: a whole two-node "rack" out of four crashes as a
// unit, so neither member's recovery assist can come from inside the
// group — the surviving pair must carry it. Every strategy must still
// converge to the centralized answer, at every trigger point.
func TestStrategiesCorrectUnderGroupCrashRestart(t *testing.T) {
	d := rel.NewDict()
	tri := triangles(d)
	open := openTriangles(d)
	g := workload.RandomGraph(9, 20, 7)
	rack := []policy.Node{1, 2}

	for _, after := range []int{0, 5, 1 << 20} { // immediately, mid-run, at quiescence
		crash := func() Option { return WithGroupCrashRestart(rack, after) }

		n := New(4, func() Program { return MonotoneBroadcast(tri) }, WithSeed(9), crash())
		if err := n.LoadParts(hashParts(g, 4)); err != nil {
			t.Fatal(err)
		}
		st, err := n.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st.Crashes != len(rack) {
			t.Fatalf("after %d: %d crashes fired, want the whole %d-node rack", after, st.Crashes, len(rack))
		}
		if !n.Output().Equal(tri(g)) {
			t.Errorf("after %d: monotone broadcast wrong under group crash-restart", after)
		}

		n2 := New(4, func() Program { return &Coordinated{Q: open} }, WithSeed(9), crash())
		if err := n2.LoadParts(hashParts(g, 4)); err != nil {
			t.Fatal(err)
		}
		if _, err := n2.Run(); err != nil {
			t.Fatal(err)
		}
		if !n2.Output().Equal(open(g)) {
			t.Errorf("after %d: coordinated protocol wrong under group crash-restart", after)
		}

		pol := &policy.Hash{Nodes: 4}
		n3 := New(4, func() Program { return OpenTriangle() }, WithSeed(9), crash(), WithPolicy(pol))
		if err := n3.LoadPolicy(g, pol); err != nil {
			t.Fatal(err)
		}
		if _, err := n3.Run(); err != nil {
			t.Fatal(err)
		}
		if !n3.Output().Equal(open(g)) {
			t.Errorf("after %d: open-triangle program wrong under group crash-restart", after)
		}
	}
}

// Faults compose: duplication + delay bursts + two crash-restarts in
// one run, across the scheduler matrix — the full chaos regime. The
// answer must not move.
func TestStrategiesCorrectUnderChaos(t *testing.T) {
	d := rel.NewDict()
	tri := triangles(d)
	g := workload.RandomGraph(9, 20, 7)
	want := tri(g)
	q := Query(notTC)
	g3 := workload.ComponentsGraph(3, 3)
	wantNTC := q(g3)

	for name, mk := range schedulerFactories(3, 21) {
		opts := func(s Scheduler) []Option {
			return []Option{
				WithScheduler(s),
				WithDuplication(1, 5),
				WithDelayBursts(4, 3, 11),
				WithCrashRestart(0, 3),
				WithCrashRestart(2, 9),
			}
		}
		n := New(3, func() Program { return MonotoneBroadcast(tri) }, opts(mk())...)
		if err := n.LoadParts(hashParts(g, 3)); err != nil {
			t.Fatal(err)
		}
		st, err := n.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !n.Output().Equal(want) {
			t.Errorf("%s: monotone broadcast wrong under chaos", name)
		}
		if st.Crashes != 2 {
			t.Errorf("%s: %d crashes fired, want 2", name, st.Crashes)
		}
		if st.Bursts == 0 {
			t.Errorf("%s: no delay bursts fired", name)
		}

		dgpol := &policy.DomainGuided{Nodes: 3, DefaultWidth: 1}
		n2 := New(3, func() Program { return &DisjointComplete{Q: q} }, append(opts(mk()), WithPolicy(dgpol))...)
		if err := n2.LoadPolicy(g3, dgpol); err != nil {
			t.Fatal(err)
		}
		if _, err := n2.Run(); err != nil {
			t.Fatal(err)
		}
		if !n2.Output().Equal(wantNTC) {
			t.Errorf("%s: disjoint-complete wrong under chaos", name)
		}
	}
}

// A crash wipes volatile state but keeps the durable fragment: after
// restarting with no peers to assist (p=1), the node's state is
// exactly its reloaded local database plus its own restart work.
func TestCrashRestartReloadsDurableState(t *testing.T) {
	d := rel.NewDict()
	tri := triangles(d)
	g := rel.MustInstance(d, "E(0,1)", "E(1,2)", "E(2,0)")
	n := New(1, func() Program { return MonotoneBroadcast(tri) }, WithCrashRestart(0, 1<<20))
	if err := n.LoadParts([]*rel.Instance{g}); err != nil {
		t.Fatal(err)
	}
	st, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Crashes != 1 {
		t.Fatalf("crash did not fire at quiescence: %+v", st)
	}
	if !dataFacts(n.ctxs[0].state).Equal(g) {
		t.Errorf("restarted node's state is not the reloaded durable fragment")
	}
	if !n.Output().Equal(tri(g)) {
		t.Errorf("p=1 output wrong after crash-restart")
	}
	// Outputs are write-only: the pre-crash output survived even
	// though the program restarted.
	if n.NodeOutput(0).Len() == 0 {
		t.Errorf("write-only output lost across restart")
	}
}

// TestCrashRestartReloadsThePristineFragment pins the two copies the
// stable store keeps: a node mutates the state it reloads, and the
// caller may go on mutating the parts it loaded, yet every crash —
// here two of node 0, the second after its reloaded state had grown by
// what its peers sent — hands out the fragment as loaded. Dropping
// either copy (at load or at reload) fails it.
func TestCrashRestartReloadsThePristineFragment(t *testing.T) {
	d := rel.NewDict()
	tri := triangles(d)
	g := rel.MustInstance(d, "E(0,1)", "E(1,2)", "E(2,0)", "E(2,3)", "E(3,4)", "E(4,2)")
	parts := hashParts(g, 2)
	want := parts[0].Clone()
	n := New(2, func() Program { return MonotoneBroadcast(tri) }, WithSeed(3), WithCrashRestart(0, 2), WithCrashRestart(0, 1<<20))
	if err := n.LoadParts(parts); err != nil {
		t.Fatal(err)
	}
	parts[0].Add(rel.NewFact("E", 7, 8)) // the caller's copy moves on
	st, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Crashes != 2 {
		t.Fatalf("%d crashes fired, want 2", st.Crashes)
	}
	if dataFacts(n.ctxs[0].state).Len() <= want.Len() {
		t.Fatalf("node 0 ends holding %d data facts, no more than its fragment's %d: the run never mutated a reloaded state", dataFacts(n.ctxs[0].state).Len(), want.Len())
	}
	if got := n.reload(0); !got.Equal(want) {
		t.Fatalf("node 0 reloads %d facts after two crashes, want its fragment as loaded (%d)", got.Len(), want.Len())
	}
	if !n.Output().Equal(tri(g)) {
		t.Errorf("output wrong after two crash-restarts")
	}
}

// Delay bursts freeze one node's inbound delivery without violating
// fairness: the run still quiesces and the output is unchanged.
func TestDelayBurstsPreserveOutputAndLiveness(t *testing.T) {
	d := rel.NewDict()
	tri := triangles(d)
	g := workload.RandomGraph(9, 20, 7)
	want := tri(g)
	for _, every := range []int{1, 3, 7} {
		n := New(3, func() Program { return MonotoneBroadcast(tri) }, WithSeed(4), WithDelayBursts(every, 5, 17))
		if err := n.LoadParts(hashParts(g, 3)); err != nil {
			t.Fatal(err)
		}
		st, err := n.Run()
		if err != nil {
			t.Fatalf("every=%d: %v (liveness violated?)", every, err)
		}
		if st.Bursts == 0 {
			t.Fatalf("every=%d: no bursts fired", every)
		}
		if !n.Output().Equal(want) {
			t.Errorf("every=%d: output wrong under delay bursts", every)
		}
	}
}

// An extreme burst regime: every delivery starts a new freeze. The
// early-thaw rule (a frozen node holding the only pending messages
// thaws) is what keeps this from deadlocking.
func TestDelayBurstEarlyThaw(t *testing.T) {
	d := rel.NewDict()
	tri := triangles(d)
	g := rel.MustInstance(d, "E(0,1)", "E(1,2)", "E(2,0)")
	n := New(2, func() Program { return MonotoneBroadcast(tri) }, WithSeed(1), WithDelayBursts(1, 1000, 3))
	if err := n.LoadParts(hashParts(g, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatalf("burst freeze deadlocked the run: %v", err)
	}
	if !n.Output().Equal(tri(g)) {
		t.Errorf("output wrong under persistent freezes")
	}
}

// Fault-injected runs must be reproducible down to the exact Stats,
// not just the output: a crash point exposes WHICH messages were
// delivered first, so any map-order dependence upstream (e.g. in a
// program's Start broadcast order) shows up as run-to-run drift in
// sent counts. Regression for exactly such a bug in
// DisjointComplete.Start.
func TestChaosStatsReproducible(t *testing.T) {
	q := Query(notTC)
	g3 := workload.ComponentsGraph(3, 3)
	run := func() Stats {
		pol := &policy.DomainGuided{Nodes: 3, DefaultWidth: 1}
		n := New(3, func() Program { return &DisjointComplete{Q: q} },
			WithSeed(23), WithDuplication(2, 41), WithDelayBursts(5, 3, 19),
			WithCrashRestart(1, 6), WithPolicy(pol))
		if err := n.LoadPolicy(g3, pol); err != nil {
			t.Fatal(err)
		}
		st, err := n.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("chaos run stats drifted between identical runs:\n %+v\n %+v", a, b)
	}
}

// Fault accounting: every injected event is visible in Stats, and the
// step identity extends to Steps == p + Delivered + Crashes + Assists.
func TestFaultAccounting(t *testing.T) {
	d := rel.NewDict()
	tri := triangles(d)
	g := workload.RandomGraph(9, 20, 7)
	p := 3
	n := New(p, func() Program { return MonotoneBroadcast(tri) },
		WithSeed(2), WithDuplication(2, 8), WithCrashRestart(1, 4))
	if err := n.LoadParts(hashParts(g, p)); err != nil {
		t.Fatal(err)
	}
	st, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Duplicated == 0 {
		t.Error("no duplicates accounted")
	}
	if st.Crashes != 1 {
		t.Errorf("%d crashes accounted, want 1", st.Crashes)
	}
	if st.Assists != p-1 {
		t.Errorf("%d assists accounted, want %d (every live peer implements Recoverer)", st.Assists, p-1)
	}
	if st.Steps != p+st.Delivered+st.Crashes+st.Assists {
		t.Errorf("step identity violated: Steps=%d p=%d Delivered=%d Crashes=%d Assists=%d",
			st.Steps, p, st.Delivered, st.Crashes, st.Assists)
	}
	if st.Delivered > st.Sent {
		t.Errorf("Delivered %d > Sent %d", st.Delivered, st.Sent)
	}
}

// WithGroupCrashRestart schedules a correlated crash-restart of a
// whole node group — a rack losing power — at the same trigger as
// WithCrashRestart. The group fails as a unit: every member loses its
// volatile state before any member restarts, so no member's recovery
// assist can come from inside the group; only surviving peers outside
// it take recovery-assist transitions. This is strictly harsher than
// the same crashes scheduled independently, where an earlier victim is
// already back up (volatile state rebuilt by Start) when it assists a
// later one.
func WithGroupCrashRestart(group []policy.Node, afterDeliveries int) Option {
	return func(n *Network) {
		f := n.faultsLazy()
		f.crashes = append(f.crashes, crashEvent{
			nodes: append([]policy.Node(nil), group...),
			after: afterDeliveries,
		})
	}
}
