package mpc

import (
	"fmt"
	"testing"

	"mpclogic/internal/rel"
)

// The virtual-clock backoff schedule is part of the deterministic
// execution contract: attempt k launches one detection tick plus
// 2^(k-1) backoff ticks after the previous failure, so an operation
// that fails f times and then succeeds completes at
// f + (2^f - 1) + cost.
func TestRetryCompletionSchedule(t *testing.T) {
	cases := []struct{ failures, cost, want int }{
		{0, 1, 1}, // fault-free round: one tick
		{1, 1, 3}, // fail@1, detect+backoff 1, run 1
		{2, 1, 6},
		{3, 1, 11},
		{0, 5, 5},
		{2, 3, 8},
		{4, 1, 20},
	}
	for _, c := range cases {
		if got := retryCompletion(c.failures, c.cost); got != c.want {
			t.Errorf("retryCompletion(%d, %d) = %d, want %d", c.failures, c.cost, got, c.want)
		}
	}
	// Monotone in both arguments: more failures or a slower operation
	// can never finish earlier.
	for f := 0; f < 6; f++ {
		for cost := 1; cost < 6; cost++ {
			if retryCompletion(f+1, cost) <= retryCompletion(f, cost) {
				t.Errorf("not monotone in failures at (%d, %d)", f, cost)
			}
			if retryCompletion(f, cost+1) <= retryCompletion(f, cost) {
				t.Errorf("not monotone in cost at (%d, %d)", f, cost)
			}
		}
	}
}

// specCluster runs a single broadcast round on 2 servers under the
// given options and returns the round's stats plus the output string.
func specCluster(t *testing.T, opts ...Option) (RoundStats, string) {
	t.Helper()
	d := rel.NewDict()
	inst := rel.MustInstance(d, "R(0, 0)", "R(1, 1)", "R(2, 2)", "R(3, 3)")
	c := NewCluster(2, opts...)
	c.LoadRoundRobin(inst)
	st, err := c.RunRound(Round{Name: "bcast", Route: Broadcast(2)})
	if err != nil {
		t.Fatal(err)
	}
	return st, c.Output().String()
}

// Speculation tie-breaking at the exact boundary: with the default
// threshold of 2 ticks the speculative copy launches at tick 2 and
// lands at tick 3. A straggler of δ=2 finishes at tick 3 as well —
// the TIE keeps the primary (no win), though the backup's checkpoint
// refetch is still charged. δ=3 finishes at tick 4, strictly after
// the backup, so the backup wins.
func TestSpeculativeWinBoundary(t *testing.T) {
	base, wantOut := specCluster(t, WithCheckpoints())

	tie, outTie := specCluster(t, WithFaultPlan(NewFaultPlan().AddStraggle(0, 0, 2)))
	if tie.SpeculativeWins != 0 {
		t.Errorf("δ=2 tie: %d speculative wins, want 0 (tie keeps the primary)", tie.SpeculativeWins)
	}
	if want := tie.Received[0]; tie.ReplicaComm != want {
		t.Errorf("δ=2 tie: ReplicaComm = %d, want %d (one checkpoint refetch for the launched backup)",
			tie.ReplicaComm, want)
	}
	if tie.VirtualMakespan != 1+3 {
		t.Errorf("δ=2 tie: makespan = %d, want 4", tie.VirtualMakespan)
	}

	win, outWin := specCluster(t, WithFaultPlan(NewFaultPlan().AddStraggle(0, 0, 3)))
	if win.SpeculativeWins != 1 {
		t.Errorf("δ=3: %d speculative wins, want 1 (backup strictly faster)", win.SpeculativeWins)
	}
	if win.VirtualMakespan != 1+3 {
		t.Errorf("δ=3: makespan = %d, want 4 (backup lands at tick 3)", win.VirtualMakespan)
	}

	// With speculation disabled the same straggler runs to completion.
	slow, outSlow := specCluster(t, WithFaultPlan(NewFaultPlan().AddStraggle(0, 0, 3)), WithSpeculation(0))
	if slow.SpeculativeWins != 0 || slow.ReplicaComm != 0 {
		t.Errorf("speculation disabled but backup launched: %+v", slow)
	}
	if slow.VirtualMakespan != 1+4 {
		t.Errorf("no-speculation makespan = %d, want 5", slow.VirtualMakespan)
	}

	// Whoever wins, the computation is the same pure function of the
	// same checkpointed input: outputs and logical metrics are
	// byte-identical across all four runs.
	for i, got := range []string{outTie, outWin, outSlow} {
		if got != wantOut {
			t.Errorf("run %d output diverged from fault-free run", i)
		}
	}
	for i, st := range []RoundStats{tie, win, slow} {
		if st.LogicalString() != base.LogicalString() {
			t.Errorf("run %d logical stats diverged: %s vs %s", i, st.LogicalString(), base.LogicalString())
		}
	}
}

// A crashed server takes the recovery path, not the speculation path:
// even a crash+straggle combination that a backup copy would easily
// beat must recover via checkpoint re-execution with backoff, never
// record a speculative win, and still reproduce the fault-free bytes.
func TestCrashSuppressesSpeculation(t *testing.T) {
	_, wantOut := specCluster(t, WithCheckpoints())

	plan := NewFaultPlan().AddCrash(0, 0, 1).AddStraggle(0, 0, 5)
	st, out := specCluster(t, WithFaultPlan(plan))
	if st.SpeculativeWins != 0 {
		t.Errorf("crashed server recorded a speculative win")
	}
	if st.Retries != 1 || st.RecoveredServers != 1 {
		t.Errorf("recovery metrics wrong: %+v", st)
	}
	// cost = 1+δ = 6, one crash: completion at retryCompletion(1, 6) = 8.
	if st.VirtualMakespan != 1+8 {
		t.Errorf("makespan = %d, want 9", st.VirtualMakespan)
	}
	if want := st.Received[0]; st.ReplicaComm != want {
		t.Errorf("ReplicaComm = %d, want %d (one checkpoint refetch per re-execution)", st.ReplicaComm, want)
	}
	if out != wantOut {
		t.Errorf("recovered output diverged from fault-free run")
	}
}

// A repair computes on a private copy of exactly the input it repairs.
// In a resident round every server's resident relation rides into its
// round input by reference; a crashed server and a straggler beaten by
// its speculative copy must each see a relation that is NOT the live
// one (a re-execution may not fold into committed state twice), every
// server that needed no repair must see the live one itself (nothing
// is copied for it), and the committed result must be the fault-free
// run's.
func TestRepairTakesAPrivateCopy(t *testing.T) {
	const p, crashed, speculated = 4, 1, 2
	prog := countdownProgram(p)
	run := func(opts ...Option) (c *Cluster, seen, live []*rel.Relation) {
		c = NewCluster(p, opts...)
		for s := 0; s < p; s++ {
			c.LoadAt(s, naturals(100+s))
		}
		c.loadDelta(naturals(7, 8, 9, 10, 11, 12))
		live = make([]*rel.Relation, p)
		for s := range live {
			live[s] = c.Server(s).Relation("N")
		}
		seen = make([]*rel.Relation, p)
		r := prog.Step(0)
		fold := r.Compute
		r.Compute = func(s int, local *rel.Instance) *rel.Instance {
			seen[s] = local.Relation("N")
			return fold(s, local)
		}
		if _, err := c.RunRound(r); err != nil {
			t.Fatal(err)
		}
		return c, seen, live
	}

	ref, _, _ := run()
	plan := NewFaultPlan().AddCrash(0, crashed, 1).AddStraggle(0, speculated, 3)
	got, seen, live := run(WithFaultPlan(plan))

	st := got.LastStats()
	if st.RecoveredServers != 1 || st.SpeculativeWins != 1 {
		t.Fatalf("plan did not fire as intended: %+v", st)
	}
	for s := 0; s < p; s++ {
		repaired := s == crashed || s == speculated
		if seen[s] == nil {
			t.Fatalf("server %d computed without its resident relation", s)
		}
		if private := seen[s] != live[s]; private != repaired {
			t.Errorf("server %d (repaired: %v) computed on a private copy of its resident relation: %v", s, repaired, private)
		}
		if !got.Server(s).Equal(ref.Server(s)) {
			t.Errorf("server %d committed state diverged from the fault-free run", s)
		}
	}
	if g, w := st.LogicalString(), ref.LastStats().LogicalString(); g != w {
		t.Errorf("logical stats diverged:\n got %s\nwant %s", g, w)
	}
}

// TestRestoreTwiceFromOneCheckpoint pins the copies a checkpoint makes:
// the checkpoint is cut from servers that go on mutating, and it may be
// restored any number of times, so neither the source cluster nor a
// cluster restored from it can reach what another restore sees.
// Dropping either copy (the snapshot's or Restore's) fails it.
func TestRestoreTwiceFromOneCheckpoint(t *testing.T) {
	const p = 4
	inst := rel.NewInstance()
	for i := 0; i < 32; i++ {
		inst.Add(rel.NewFact("R", rel.Value(i), rel.Value(i+1)))
	}
	c := NewCluster(p)
	c.LoadRoundRobin(inst)
	want := make([]*rel.Instance, p)
	for i := range want {
		want[i] = c.Server(i).Clone()
	}
	mutate := func(c *Cluster) {
		for i := 0; i < p; i++ {
			c.Server(i).Add(rel.NewFact("R", 99, rel.Value(i)))
		}
	}
	same := func(what string, c *Cluster) {
		t.Helper()
		for i := 0; i < p; i++ {
			if !c.Server(i).Equal(want[i]) {
				t.Fatalf("%s: server %d holds %d facts, want the checkpoint's %d", what, i, c.Server(i).Len(), want[i].Len())
			}
		}
	}

	ck := c.Checkpoint()
	mutate(c)
	first, second := Restore(ck), Restore(ck)
	same("a restore after the source cluster moved on", first)
	mutate(first)
	same("the second restore after the first was mutated", second)
	same("a third restore", Restore(ck))
}

// WithRetryBudget bounds per-site failures before a round errors out.
func WithRetryBudget(n int) Option {
	if n < 0 {
		panic(fmt.Sprintf("mpc: negative retry budget %d", n))
	}
	return func(c *Cluster) { c.ensureFT().retryBudget = n }
}

// WithSpeculation sets the straggler threshold in virtual ticks; a
// computation still running after that many ticks gets a speculative
// backup copy. 0 disables speculation.
func WithSpeculation(afterTicks int) Option {
	if afterTicks < 0 {
		panic(fmt.Sprintf("mpc: negative speculation threshold %d", afterTicks))
	}
	return func(c *Cluster) { c.ensureFT().speculateAfter = afterTicks }
}

// WithReplication replicates each round's inputs to k peer servers
// (accounted in ReplicaComm, k times the inputs' size, every round).
func WithReplication(k int) Option {
	if k < 0 {
		panic(fmt.Sprintf("mpc: negative replication factor %d", k))
	}
	return func(c *Cluster) { c.ensureFT().replicas = k }
}
