package core

import (
	"fmt"

	"mpclogic/internal/cq"
	"mpclogic/internal/gym"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// Algorithm names the MPC evaluation strategies the planner chooses
// between (Section 3).
type Algorithm string

// The implemented strategies.
const (
	AlgoHyperCube   Algorithm = "hypercube"   // one round, Shares grid
	AlgoRepartition Algorithm = "repartition" // one round, hash join
	AlgoGrouping    Algorithm = "grouping"    // one round, skew-proof
	AlgoYannakakis  Algorithm = "yannakakis"  // multi-round, acyclic
	AlgoGYM         Algorithm = "gym"         // multi-round, cyclic
)

// Plan is a chosen strategy plus its rationale.
type Plan struct {
	Algorithm Algorithm
	Rationale string
	Query     *cq.CQ
	Servers   int
	Seed      uint64
	// WCOJ runs the worst-case-optimal generic join as the local
	// computation of the HyperCube round — the pairing of
	// Chu-Balazinska-Suciu's study.
	WCOJ bool
}

// ChoosePlan picks an algorithm for evaluating q on p servers,
// following the guidance the paper surveys: acyclic queries get
// Yannakakis (intermediates bounded); cyclic ones get HyperCube when
// one round is wanted or the output is expected large, GYM otherwise;
// binary joins under known skew get the grouping strategy.
func ChoosePlan(q *cq.CQ, p int, oneRound, skewed bool) (*Plan, error) {
	if q.HasNegation() {
		return nil, fmt.Errorf("core: MPC planner handles positive CQs")
	}
	plan := &Plan{Query: q, Servers: p, Seed: 0x9e3779b9}
	switch {
	case oneRound && skewed && len(q.Body) == 2 && q.SelfJoinFree():
		plan.Algorithm = AlgoGrouping
		plan.Rationale = "binary join under skew: value-oblivious grouping keeps load at m/√p (Example 3.1(1b))"
	case oneRound:
		plan.Algorithm = AlgoHyperCube
		plan.WCOJ = len(q.Body) > 2 && !q.HasDiseq()
		plan.Rationale = "single round requested: HyperCube is worst-case optimal at m/p^{1/τ*} on skew-free data (Section 3.1)"
	case cq.IsAcyclic(q):
		plan.Algorithm = AlgoYannakakis
		plan.Rationale = "acyclic query: semijoin reduction bounds intermediates by the output (Section 3.2)"
	default:
		plan.Algorithm = AlgoGYM
		plan.Rationale = "cyclic query, multiple rounds allowed: GYM evaluates a tree decomposition (Section 3.2)"
	}
	return plan, nil
}

// PlanError is the one error elaborating a plan returns: the plan names
// no known algorithm, or one that does not fit its query or options.
type PlanError struct {
	Algorithm Algorithm
	Err       error
}

func (e *PlanError) Error() string { return fmt.Sprintf("core: plan %q: %v", e.Algorithm, e.Err) }

func (e *PlanError) Unwrap() error { return e.Err }

// Program elaborates the plan into its round list and the number of
// servers those rounds address (HyperCube may use fewer than
// plan.Servers: its shares are integers). It is the one place an
// algorithm name becomes rounds, and a pure function of the plan, so
// every process of a distributed run derives the identical program.
func (plan *Plan) Program() ([]mpc.Round, int, error) {
	q, p, seed := plan.Query, plan.Servers, plan.Seed
	rounds := make([]mpc.Round, 1)
	var err error
	switch plan.Algorithm {
	case AlgoHyperCube:
		var g *hypercube.Grid
		if g, err = hypercube.NewOptimalGrid(q, p, seed); err != nil {
			break
		}
		rounds[0], p = hypercube.HyperCubeRound(g), g.P()
		if plan.WCOJ {
			rounds[0].Compute = hypercube.GenericJoinCompute(q)
		}
	case AlgoRepartition:
		rounds[0], err = hypercube.RepartitionJoin(q, p, seed)
	case AlgoGrouping:
		rounds[0], err = hypercube.GroupingJoin(q, p, seed)
	case AlgoYannakakis:
		rounds, err = gym.YannakakisProgram(q, p, seed)
	case AlgoGYM:
		rounds, _, err = gym.GYMProgram(q, p, seed)
	default:
		err = fmt.Errorf("unknown algorithm (want hypercube | repartition | grouping | yannakakis | gym)")
	}
	if err == nil && plan.WCOJ && plan.Algorithm != AlgoHyperCube {
		err = fmt.Errorf("the generic join is the local engine of the HyperCube round only")
	}
	if err != nil {
		return nil, 0, &PlanError{Algorithm: plan.Algorithm, Err: err}
	}
	return rounds, p, nil
}

// Simulate is the in-process executor: it loads inst round-robin onto a
// fresh p-server cluster and runs the rounds. On error the partially
// executed cluster is still returned.
func Simulate(rounds []mpc.Round, p int, inst *rel.Instance) (*mpc.Cluster, error) {
	c := mpc.NewCluster(p)
	c.LoadRoundRobin(inst)
	return c, c.Run(rounds...)
}

// Result of an executed plan.
type Result struct {
	Output    *rel.Instance
	Trace     string // the cluster's logical trace, one line per round
	Rounds    int
	MaxLoad   int
	TotalComm int
}

// Execute runs the plan on the instance and reports the MPC cost
// profile.
func Execute(plan *Plan, inst *rel.Instance) (*Result, error) {
	rounds, p, err := plan.Program()
	if err != nil {
		return nil, err
	}
	c, err := Simulate(rounds, p, inst)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", plan.Algorithm, err)
	}
	return &Result{Output: c.Output(), Trace: c.LogicalTrace(), Rounds: c.Rounds(), MaxLoad: c.MaxLoad(), TotalComm: c.TotalComm()}, nil
}

// DetectSkew reports whether any relation of the instance has a value
// whose frequency in some column exceeds m/threshFrac (heavy hitters,
// Section 3). It returns the offending values per relation/column.
func DetectSkew(inst *rel.Instance, threshold int) map[string][]rel.Value {
	out := map[string][]rel.Value{}
	for _, name := range inst.RelationNames() {
		r := inst.Relation(name)
		for col := 0; col < r.Arity; col++ {
			if hh := workload.HeavyHitters(inst, name, col, threshold); len(hh) > 0 {
				key := fmt.Sprintf("%s[%d]", name, col)
				out[key] = hh
			}
		}
	}
	return out
}
