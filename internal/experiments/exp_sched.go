package experiments

import (
	"fmt"
	"sort"

	"mpclogic/internal/mono"
	"mpclogic/internal/rel"
	"mpclogic/internal/transducer"
	"mpclogic/internal/workload"
)

// Experiments for the schedule quantifier itself: the theorems of
// Section 5 claim correctness under EVERY message schedule, with
// arbitrary delay and duplication. SCHED discharges the quantifier
// exhaustively on small networks; CHAOS samples it adversarially on
// larger ones, with fault injection the explorer deliberately
// excludes. Both are matrices of independent runs, so they split into
// cells: each exploration target and each CHAOS strategy is its own
// sweep job.

func init() {
	register(Def{
		ID:    "SCHED-exhaustive",
		Name:  "SCHED",
		Title: "exhaustive schedule exploration (Theorems 5.8/5.12, Example 5.1(2))",
		Claim: "policy-aware and domain-guided strategies compute Q on every schedule; naive broadcast of a non-monotone query is wrong on every schedule",
		Cells: []Cell{
			{Params: "open-triangle-p2+p3", Run: cellSchedOpenTriangle},
			{Params: "ntc-46k-states", Run: cellSchedNTC},
			{Params: "naive-broadcast", Run: cellSchedNaiveBroadcast},
		},
	})
	register(Def{
		ID:    "CHAOS-matrix",
		Name:  "CHAOS",
		Title: "scheduler × fault matrix (arbitrary delay, duplication, crash-restart)",
		Claim: "every Section 5 strategy computes Q under every scheduler with duplication and crash-restart enabled",
		Cells: []Cell{
			{Params: "monotone-broadcast", Run: cellChaosStrategy("monotone-broadcast", mono.M, mono.M, nil)},
			// The fallback earns its place on a query it is needed for.
			{Params: "coordinated", Run: cellChaosStrategy("coordinated", mono.None, mono.Mdistinct, nil)},
			{Params: "open-triangle-aware", Run: cellChaosStrategy("open-triangle-aware", mono.Mdistinct, mono.Mdistinct, transducer.OpenTriangle())},
			{Params: "disjoint-complete", Run: cellChaosStrategy("disjoint-complete", mono.Mdisjoint, mono.Mdisjoint, nil)},
		},
	})
}

// Example 5.4: open triangle over a hash policy, p = 2 and 3, every
// delivery order enumerated (modulo the explorer's sound reductions).
func cellSchedOpenTriangle() (*Result, error) {
	res := newResult()
	d := rel.NewDict()
	row := transducer.StrategyFor(mono.Mdistinct)
	g := rel.MustInstance(d, "E(1,2)", "E(2,3)", "E(3,1)", "E(2,4)")
	for _, p := range []int{2, 3} {
		n, err := transducer.Load(transducer.OpenTriangle().Factory(), row.Policy(p), g)
		if err != nil {
			return nil, err
		}
		r, err := transducer.Explore(n, 2_000_000)
		if err != nil {
			return nil, err
		}
		ok := r.Deterministic() && r.Outputs[0] == row.Witness(g).String()
		res.rowf("open-triangle p=%d: states=%d transitions=%d quiescent=%d memo=%d sleep=%d correct-on-all=%v",
			p, r.States, r.Transitions, r.Quiescent, r.MemoHits, r.SleepPrunes, ok)
		res.Pass = res.Pass && ok
	}
	return res, nil
}

// ¬TC over the domain-guided policy, p=3 with three singleton
// components: the 46k-state exploration, deliberately larger than the
// unit tests' — a scale that belongs in the experiment budget rather
// than `go test`.
func cellSchedNTC() (*Result, error) {
	res := newResult()
	d := rel.NewDict()
	row := transducer.StrategyFor(mono.Mdisjoint)
	g2 := rel.MustInstance(d, "E(0,0)", "E(1,1)", "E(2,2)")
	n, err := transducer.Load(row.Program(row.Witness, nil), row.Policy(3), g2)
	if err != nil {
		return nil, err
	}
	r, err := transducer.Explore(n, 2_000_000)
	if err != nil {
		return nil, err
	}
	ok := r.Deterministic() && r.Outputs[0] == row.Witness(g2).String()
	res.rowf("¬TC domain-guided p=3: states=%d transitions=%d quiescent=%d memo=%d sleep=%d correct-on-all=%v",
		r.States, r.Transitions, r.Quiescent, r.MemoHits, r.SleepPrunes, ok)
	res.Pass = res.Pass && ok
	return res, nil
}

// Example 5.1(2): naive broadcast of the open-triangle query on a
// closed triangle split one edge per node — wrong on EVERY schedule,
// and which wrong answer depends on the schedule.
func cellSchedNaiveBroadcast() (*Result, error) {
	res := newResult()
	d := rel.NewDict()
	// Row M's program on the witness of the row below: the mismatch
	// is the experiment.
	nb := transducer.New(3, transducer.StrategyFor(mono.M).Program(witness(mono.Mdistinct), nil))
	parts := []*rel.Instance{
		rel.MustInstance(d, "E(0,1)"),
		rel.MustInstance(d, "E(1,2)"),
		rel.MustInstance(d, "E(2,0)"),
	}
	if err := nb.LoadParts(parts); err != nil {
		return nil, err
	}
	wres, err := transducer.Explore(nb, 1_000_000)
	if err != nil {
		return nil, err
	}
	allWrong := true
	for _, out := range wres.Outputs {
		if out == "{}" {
			allWrong = false
		}
	}
	witnessOK := allWrong && !wres.Deterministic()
	res.rowf("naive broadcast witness: states=%d quiescent=%d distinct-wrong-outputs=%d all-schedules-wrong=%v",
		wres.States, wres.Quiescent, len(wres.Outputs), witnessOK)
	res.Pass = res.Pass && witnessOK
	return res, nil
}

// cellChaosStrategy runs one row of the CALM table — its program, or
// the paper's verbatim one when it gives one — on the witness query of
// class on, under every scheduler in the matrix with duplication,
// delay bursts, and a mid-run crash-restart all enabled, and verifies
// the centralized answer survives. This is the regime the model
// actually promises: arbitrary delay AND duplication AND nodes that
// lose their volatile state.
func cellChaosStrategy(name string, class, on mono.Class, verbatim *transducer.Broadcast) func() (*Result, error) {
	return func() (*Result, error) {
		res := newResult()
		row, q := transducer.StrategyFor(class), witness(on)
		mk := row.Program(q, nil)
		if verbatim != nil {
			mk = verbatim.Factory()
		}
		const p = 3
		g := workload.RandomGraph(9, 20, 7)
		if on == mono.Mdisjoint {
			g = workload.ComponentsGraph(3, 3)
		}
		want := q(g).String()

		scheds := transducer.SchedulerMatrix(p, 23)
		names := make([]string, 0, len(scheds))
		for schedName := range scheds {
			names = append(names, schedName)
		}
		sort.Strings(names)

		allOK := true
		var agg transducer.Stats
		for _, schedName := range names {
			// Schedulers are stateful: rebuild the matrix per run.
			n, err := transducer.Load(mk, row.Policy(p), g,
				transducer.WithScheduler(transducer.SchedulerMatrix(p, 23)[schedName]),
				transducer.WithDuplication(2, 41),
				transducer.WithDelayBursts(5, 3, 19),
				transducer.WithCrashRestart(1, 6))
			if err != nil {
				return nil, err
			}
			st, err := n.Run()
			if err != nil {
				return nil, fmt.Errorf("%s under %s: %w", name, schedName, err)
			}
			agg.Sent += st.Sent
			agg.Delivered += st.Delivered
			agg.Duplicated += st.Duplicated
			agg.Bursts += st.Bursts
			agg.Crashes += st.Crashes
			agg.Assists += st.Assists
			if n.Output().String() != want {
				allOK = false
			}
		}
		res.rowf("%-20s schedulers=%d correct=%v  Σ(sent=%d delivered=%d dup=%d bursts=%d crashes=%d assists=%d)",
			name, len(names), allOK, agg.Sent, agg.Delivered, agg.Duplicated, agg.Bursts, agg.Crashes, agg.Assists)
		res.Pass = res.Pass && allOK && agg.Duplicated > 0 && agg.Crashes == len(names)
		return res, nil
	}
}
