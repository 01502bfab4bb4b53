package experiments

import (
	"errors"
	"fmt"

	"mpclogic/internal/core"
	"mpclogic/internal/gym"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// FAULTMPC exercises the fault-tolerance layer of the synchronous
// engine (PR 4): the MPC model assumes servers that never fail, so the
// engineering claim to verify is fault *transparency* — checkpointed
// recovery, retransmission, and straggler speculation may change when
// a round finishes and how much replica traffic it costs, but never
// what it computes or the logical load metrics the theory bounds.
// Each algorithm's 13-plan matrix is an independent cell, as is the
// checkpoint-resume demonstration.

func init() {
	register(Def{
		ID:    "FAULTMPC-matrix",
		Name:  "FAULTMPC",
		Title: "fault-tolerant MPC rounds (checkpointed recovery, retransmission, straggler speculation)",
		Claim: "under every fault plan in the seeded matrix, output and logical maxload/totalcomm/rounds are byte-identical to the fault-free run; recovery costs surface only in the recovery metrics",
		Cells: []Cell{
			{Params: "hypercube-triangle", Run: cellFaultMatrix("hypercube-triangle")},
			{Params: "gym-triangle", Run: cellFaultMatrix("gym-triangle")},
			{Params: "skew-two-round", Run: cellFaultMatrix("skew-two-round")},
			{Params: "checkpoint-resume", Run: cellFaultResume},
		},
	})
}

// faultAlgo is one of the multi-round algorithms under test as values
// — a program and its input, rebuilt per cell from the deterministic
// workload generators, and the fault-free run every plan is held to.
type faultAlgo struct {
	name   string
	p      int
	rounds []mpc.Round
	input  *rel.Instance
	base   *mpc.Cluster
}

func (a *faultAlgo) run(opts ...mpc.Option) (*mpc.Cluster, error) {
	return mpc.Simulate(a.rounds, a.p, a.input, opts...)
}

func newFaultAlgo(name string) (*faultAlgo, error) {
	triQ := gym.TriangleCQ()
	m := 1500
	a := &faultAlgo{name: name, input: workload.TriangleSkewFree(m)}
	var err error
	switch name {
	case "hypercube-triangle":
		a.rounds, a.p, err = (&core.Plan{Algorithm: core.AlgoHyperCube, Query: triQ, Servers: 27, Seed: 11}).Program(a.input)
	case "gym-triangle":
		a.rounds, a.p, err = (&core.Plan{Algorithm: core.AlgoGYM, Query: triQ, Servers: 16, Seed: 5}).Program(a.input)
	case "skew-two-round":
		a.input, a.p = workload.TriangleSkewed(m, 0.3), 27
		heavy := rel.NewValueSet(workload.HeavyHitters(a.input, "R", 1, m/10)...)
		var skewGrid *hypercube.Grid
		if skewGrid, err = hypercube.NewOptimalGrid(triQ, 27, 17); err == nil {
			a.rounds = gym.SkewTriangleProgram(27, heavy, 17, skewGrid)
		}
	default:
		err = fmt.Errorf("unknown fault algorithm %q", name)
	}
	if err == nil {
		a.base, err = a.run()
	}
	return a, err
}

// matrixRun is what an algorithm's runs under one fault matrix add up
// to.
type matrixRun struct {
	identical   bool              // every run that succeeded matched the fault-free output and logical trace
	rec         mpc.RecoveryStats // recovery metrics summed over the runs that succeeded
	accusations int               // runs that failed with a RoutingIntegrityError
}

// runMatrix runs the algorithm under every plan of matrix and holds
// each run to the fault-free one. A plan that schedules a Persistent
// Byzantine event may fail, with a typed RoutingIntegrityError only —
// an accusation; any other failure is the cell's error.
func (a *faultAlgo) runMatrix(matrix []mpc.NamedFaultPlan) (matrixRun, error) {
	m := matrixRun{identical: true}
	baseOut, baseTrace := a.base.Output().String(), a.base.LogicalTrace()
	for _, np := range matrix {
		c, err := a.run(mpc.WithFaultPlan(np.Plan))
		if err != nil {
			var rie *mpc.RoutingIntegrityError
			if !np.Plan.Persistent() || !errors.As(err, &rie) {
				return m, fmt.Errorf("%s under %s: %w", a.name, np.Name, err)
			}
			m.accusations++
			continue
		}
		if c.Output().String() != baseOut || c.LogicalTrace() != baseTrace {
			m.identical = false
		}
		r := c.RecoveryTotals()
		m.rec.Retries += r.Retries
		m.rec.RecoveredServers += r.RecoveredServers
		m.rec.ReplicaComm += r.ReplicaComm
		m.rec.SpeculativeWins += r.SpeculativeWins
		m.rec.Quarantined += r.Quarantined
	}
	return m, nil
}

// cellFaultMatrix runs one algorithm under every plan of the seeded
// fault matrix and checks transparency against its fault-free run.
func cellFaultMatrix(name string) func() (*Result, error) {
	return func() (*Result, error) {
		res := newResult()
		a, err := newFaultAlgo(name)
		if err != nil {
			return nil, err
		}
		matrix := mpc.StandardFaultMatrix(2026, 12, a.p)
		m, err := a.runMatrix(matrix)
		if err != nil {
			return nil, err
		}
		base, agg := a.base, m.rec
		res.rowf("%-18s p=%-3d rounds=%d maxload=%d totalcomm=%d plans=%d transparent=%v  Σ(retries=%d recovered=%d replica=%d specwins=%d)",
			a.name, a.p, base.Rounds(), base.MaxLoad(), base.TotalComm(), len(matrix), m.identical,
			agg.Retries, agg.RecoveredServers, agg.ReplicaComm, agg.SpeculativeWins)
		// Transparency must hold AND must not be vacuous: the matrix
		// has to have actually crashed servers and retried transfers.
		res.Pass = res.Pass && m.identical && agg.Retries > 0 && agg.RecoveredServers > 0
		return res, nil
	}
}

// Resume demonstration: a GYM run killed mid-Yannakakis (a crash
// beyond the retry budget) is restored from its round-granular
// checkpoint and resumed via the rebuilt program, reproducing the
// fault-free output and logical trace without re-running the
// completed prefix.
func cellFaultResume() (*Result, error) {
	res := newResult()
	a, err := newFaultAlgo("gym-triangle")
	if err != nil {
		return nil, err
	}
	free := a.base
	kill := mpc.NewFaultPlan().AddCrash(4, 0, mpc.DefaultRetryBudget+1)
	crashed, err := a.run(mpc.WithFaultPlan(kill))
	if err == nil {
		res.Pass = false
		res.rowf("resume: budget-exceeding crash did NOT fail the run")
		return res, nil
	}
	ck := crashed.Checkpoint()
	restored := mpc.Restore(ck)
	if err := restored.RunResumable(a.rounds...); err != nil {
		return nil, err
	}
	resumeOK := restored.Output().String() == free.Output().String() &&
		restored.LogicalTrace() == free.LogicalTrace()
	res.rowf("resume: GYM killed at round %d/%d (retry budget exhausted), restored from checkpoint, re-ran %d rounds → output+trace identical=%v",
		ck.Rounds(), len(a.rounds), len(a.rounds)-ck.Rounds(), resumeOK)
	res.Pass = res.Pass && resumeOK
	return res, nil
}
