package mpclogic

// Workload-level determinism regression tests: repeated evaluation of
// the same MPC/CQ workload must yield byte-identical ordered output.
// This is the executable face of the paper's central hygiene premise —
// a parallel-correct one-round evaluation is a *function* of the query
// and the input, so nothing about scheduling, map iteration, or worker
// interleaving may leak into results. The mpclint suite enforces the
// same invariant statically; these tests enforce it dynamically.

import (
	"fmt"
	"testing"

	"mpclogic/internal/core"
	"mpclogic/internal/cq"
	"mpclogic/internal/gym"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// evalSnapshot captures everything observable about one evaluation.
type evalSnapshot struct {
	output string // serialized output instance (ordered)
	stats  string // per-round load statistics
	facts  int
}

// TestDeterminismRepeatedCQEvaluation: centralized CQ evaluation of
// the same query over the same instance, twice, yields identical
// ordered fact enumerations.
func TestDeterminismRepeatedCQEvaluation(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(a, dd) :- R0(a, b), R1(b, c), R2(c, dd)")
	inst, _ := workload.AcyclicChain(3, 400, 0.3, 7)

	first := cq.Output(q, inst)
	second := cq.Output(q, inst)
	if first.Len() == 0 {
		t.Fatal("workload produced an empty join; test is vacuous")
	}
	if first.String() != second.String() {
		t.Errorf("repeated centralized evaluation differs:\n%s\n%s", first, second)
	}
	f1, f2 := first.Facts(), second.Facts()
	for k := range f1 {
		if !f1[k].Equal(f2[k]) {
			t.Fatalf("fact order differs at %d: %v vs %v", k, f1[k], f2[k])
		}
	}
}

// TestDeterminismRepeatedMPCWorkload: the same distributed workload —
// round-robin load, multi-round Yannakakis over an MPC cluster — run
// several times from scratch produces identical ordered output AND
// identical per-round communication statistics. The goroutine fan-out
// inside each round must be observationally invisible.
func TestDeterminismRepeatedMPCWorkload(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(a, dd) :- R0(a, b), R1(b, c), R2(c, dd)")
	inst, _ := workload.AcyclicChain(3, 400, 0.3, 7)
	want := cq.Output(q, inst)

	var snaps []evalSnapshot
	for run := 0; run < 3; run++ {
		rounds, err := gym.YannakakisProgram(q, 8, 5)
		if err != nil {
			t.Fatal(err)
		}
		c, err := mpc.Simulate(rounds, 8, inst)
		if err != nil {
			t.Fatal(err)
		}
		out := c.Output()
		if !out.Equal(want) {
			t.Fatalf("run %d: distributed output disagrees with centralized evaluation", run)
		}
		snaps = append(snaps, evalSnapshot{
			output: out.String(),
			stats:  fmt.Sprint(c.Stats()),
			facts:  out.Len(),
		})
	}
	for run := 1; run < len(snaps); run++ {
		if snaps[run].output != snaps[0].output {
			t.Errorf("run %d output differs from run 0:\n%s\n%s", run, snaps[run].output, snaps[0].output)
		}
		if snaps[run].stats != snaps[0].stats {
			t.Errorf("run %d round statistics differ: %s vs %s", run, snaps[run].stats, snaps[0].stats)
		}
	}
	if snaps[0].facts == 0 {
		t.Fatal("distributed workload produced no facts; test is vacuous")
	}
}

// TestDeterminismRepeatedHyperCube: one-round HyperCube execution via
// the planner surface, repeated, is byte-stable in both output and
// recorded load.
func TestDeterminismRepeatedHyperCube(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	inst := workload.TriangleSkewFree(80)
	want := cq.Output(q, inst)

	var outputs, loads []string
	for run := 0; run < 3; run++ {
		plan := &core.Plan{Algorithm: core.AlgoHyperCube, Query: q, Servers: 8, Seed: 11}
		res, err := core.Execute(plan, inst)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Output.Filter(func(f rel.Fact) bool { return f.Rel == "H" })
		if !got.Equal(want) {
			t.Fatalf("run %d: HyperCube output wrong", run)
		}
		outputs = append(outputs, got.String())
		loads = append(loads, fmt.Sprintf("rounds=%d maxload=%d comm=%d", res.Rounds, res.MaxLoad, res.TotalComm))
	}
	for run := 1; run < 3; run++ {
		if outputs[run] != outputs[0] {
			t.Errorf("run %d HyperCube output differs:\n%s\n%s", run, outputs[run], outputs[0])
		}
		if loads[run] != loads[0] {
			t.Errorf("run %d HyperCube load stats differ: %s vs %s", run, loads[run], loads[0])
		}
	}
}
