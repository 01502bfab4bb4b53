package core

import (
	"fmt"
	"strings"

	"mpclogic/internal/cq"
	"mpclogic/internal/gym"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// Algorithm names one row of the menu.
type Algorithm string

// The names of the menu's rows.
const (
	AlgoHyperCube   Algorithm = "hypercube"
	AlgoRepartition Algorithm = "repartition"
	AlgoGrouping    Algorithm = "grouping"
	AlgoYannakakis  Algorithm = "yannakakis"
	AlgoGYM         Algorithm = "gym"
	AlgoCascade     Algorithm = "cascade"
	AlgoTC          Algorithm = "tc"
)

// Row is one MPC algorithm the repo can run from its name (Section 3:
// a sequence of rounds, each a reshuffle and a local computation).
type Row struct {
	Name Algorithm
	Home string // the workload (of mpcnet's table) it runs on when none is named
	fits class  // the queries its program evaluates
	// wcoj: the generic join can be the round's local engine — the
	// pairing of Chu-Balazinska-Suciu's study.
	wcoj  bool
	build program
}

// A program elaborates a fitting plan into its round list and the
// number of servers those rounds address. It receives its input
// lazily: a program that never calls input is a function of the plan
// alone, so an executor can build its rounds without generating the
// whole input.
type program func(plan *Plan, input func() *rel.Instance) ([]mpc.Round, int, error)

// class is a set of queries: its name in a refusal, and its test (a
// nil query is "no query at all").
type class struct {
	name string
	has  func(q *cq.CQ) bool
}

var (
	positive   = class{"a positive CQ", func(q *cq.CQ) bool { return q != nil && !q.HasNegation() }}
	binaryJoin = class{"a two-atom join", func(q *cq.CQ) bool { return positive.has(q) && len(q.Body) == 2 }}
	acyclic    = class{"an acyclic CQ", func(q *cq.CQ) bool { return positive.has(q) && !q.HasDiseq() && cq.IsAcyclic(q) }}
	noQuery    = class{"no query: its input is a graph of E edges", func(q *cq.CQ) bool { return q == nil }}
	// cascade is written for gym.TriangleCQ, names and all, so it fits
	// exactly the queries equivalent to it (Equivalent's error means
	// negation or inequalities — not the triangle).
	triangle = class{"the triangle query only", func(q *cq.CQ) bool {
		if q == nil {
			return false
		}
		same, err := cq.Equivalent(q, gym.TriangleCQ())
		return err == nil && same
	}}
)

// across lifts a builder whose rounds address all of plan.Servers and
// read no input into a row's build.
func across(build func(q *cq.CQ, p int, seed uint64) ([]mpc.Round, error)) program {
	return func(plan *Plan, _ func() *rel.Instance) ([]mpc.Round, int, error) {
		rounds, err := build(plan.Query, plan.Servers, plan.Seed)
		return rounds, plan.Servers, err
	}
}

// one is across for a single-round builder.
func one(build func(q *cq.CQ, p int, seed uint64) (mpc.Round, error)) program {
	return across(func(q *cq.CQ, p int, seed uint64) ([]mpc.Round, error) {
		r, err := build(q, p, seed)
		return []mpc.Round{r}, err
	})
}

// hyperCube is one round on the Shares grid; it addresses the product
// of its integer shares, which may be fewer servers than the plan has.
func hyperCube(plan *Plan, _ func() *rel.Instance) ([]mpc.Round, int, error) {
	g, err := hypercube.NewOptimalGrid(plan.Query, plan.Servers, plan.Seed)
	if err != nil {
		return nil, 0, err
	}
	r := hypercube.HyperCubeRound(g)
	if plan.WCOJ {
		r.Compute = hypercube.GenericJoinCompute(plan.Query)
	}
	return []mpc.Round{r}, g.P(), nil
}

// Menu is the table, in the order every listing of it prints: one
// round on the Shares grid; the hash join and the skew-proof grouping
// join of Example 3.1(1a)/(1b); semijoin reduction and its lift to
// tree decompositions (Section 3.2); the two-round cascade through R⋈S
// of Example 3.1(2); transitive closure unrolled to its input's depth —
// the one row whose program calls its input: a []mpc.Round has no
// loop, so a recursive program's length is its input's depth.
var Menu = []*Row{
	{AlgoHyperCube, "triangle", positive, true, hyperCube},
	{AlgoRepartition, "join", binaryJoin, false, one(hypercube.RepartitionJoin)},
	{AlgoGrouping, "join", binaryJoin, false, one(hypercube.GroupingJoin)},
	{AlgoYannakakis, "chain", acyclic, false, across(gym.YannakakisProgram)},
	{AlgoGYM, "triangle", positive, false, across(gym.GYMProgram)},
	{AlgoCascade, "triangle", triangle, false, across(func(_ *cq.CQ, p int, seed uint64) ([]mpc.Round, error) {
		return gym.CascadeTriangleProgram(p, seed), nil
	})},
	{AlgoTC, "graph", noQuery, false, func(plan *Plan, input func() *rel.Instance) ([]mpc.Round, int, error) {
		return gym.TCProgram(plan.Servers, plan.Seed, input()), plan.Servers, nil
	}},
}

// RowOf returns the named row of the menu, nil when it has none.
func RowOf(name Algorithm) *Row {
	for _, row := range Menu {
		if row.Name == name {
			return row
		}
	}
	return nil
}

// Names lists the menu in row order, "a | b | c" — what a flag's help
// and an unknown-algorithm message print.
func Names() string {
	names := make([]string, len(Menu))
	for i, row := range Menu {
		names[i] = string(row.Name)
	}
	return strings.Join(names, " | ")
}

// Plan is a chosen strategy plus its rationale.
type Plan struct {
	Algorithm Algorithm
	Rationale string
	// Query is what the plan evaluates; nil for a row that fits no
	// query (tc).
	Query   *cq.CQ
	Servers int
	Seed    uint64
	// WCOJ runs the worst-case-optimal generic join as the local
	// computation of the round, on a row that allows it.
	WCOJ bool
}

// ChoosePlan picks an algorithm for evaluating q on p servers,
// following the guidance the paper surveys: acyclic queries get
// Yannakakis (intermediates bounded); cyclic ones get HyperCube when
// one round is wanted or the output is expected large, GYM otherwise;
// binary joins under known skew get the grouping strategy.
func ChoosePlan(q *cq.CQ, p int, oneRound, skewed bool) (*Plan, error) {
	if !positive.has(q) {
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
// no row of the menu, or one that does not fit its query or options.
type PlanError struct {
	Algorithm Algorithm
	Err       error
}

func (e *PlanError) Error() string { return fmt.Sprintf("core: plan %q: %v", e.Algorithm, e.Err) }

func (e *PlanError) Unwrap() error { return e.Err }

// Row returns the plan's row of the menu, or the PlanError saying why
// it has none: an unknown name, a query the row does not fit, the
// generic join on a row that has no use for it. It reads the plan
// alone, so a caller can refuse before it generates any input.
func (plan *Plan) Row() (*Row, error) {
	row := RowOf(plan.Algorithm)
	var err error
	switch {
	case row == nil:
		err = fmt.Errorf("unknown algorithm (want %s)", Names())
	case !row.fits.has(plan.Query):
		got := "no query"
		if plan.Query != nil {
			got = plan.Query.String()
		}
		err = fmt.Errorf("evaluates %s, got %s", row.fits.name, got)
	case plan.WCOJ && !row.wcoj:
		err = fmt.Errorf("the generic join cannot be this algorithm's local engine")
	default:
		return row, nil
	}
	return nil, &PlanError{Algorithm: plan.Algorithm, Err: err}
}

// Program elaborates a plan whose row this is (Plan.Row) into its round
// list and the number of servers those rounds address (HyperCube may
// use fewer than plan.Servers). It is the one place an algorithm name
// becomes rounds, and a pure function of the plan and the input, so
// every process of a distributed run derives the identical program.
// input is called only by a row whose program reads its input (tc).
func (row *Row) Program(plan *Plan, input func() *rel.Instance) ([]mpc.Round, int, error) {
	rounds, p, err := row.build(plan, input)
	if err != nil {
		return nil, 0, &PlanError{Algorithm: plan.Algorithm, Err: err}
	}
	return rounds, p, nil
}

// Program is Row and that row's Program.
func (plan *Plan) Program(input *rel.Instance) ([]mpc.Round, int, error) {
	row, err := plan.Row()
	if err != nil {
		return nil, 0, err
	}
	return row.Program(plan, func() *rel.Instance { return input })
}

// Result is the MPC cost profile of an executed program, whichever
// executor ran it: the simulator here, mpcnet's workers (RunResult).
type Result struct {
	Output    *rel.Instance
	Trace     string // the logical trace, one line per round
	Rounds    int
	MaxLoad   int
	TotalComm int
	DeltaComm int
}

// Profile reads the cost profile off a cluster that ran a program.
func Profile(c *mpc.Cluster) Result {
	return Result{Output: c.Output(), Trace: c.LogicalTrace(), Rounds: c.Rounds(),
		MaxLoad: c.MaxLoad(), TotalComm: c.TotalComm(), DeltaComm: c.DeltaCommTotal()}
}

// Execute runs the plan on the instance — Program on mpc.Simulate — and
// reports the cost profile. A run under cluster options, or one whose
// cluster is wanted, makes those two calls itself.
func Execute(plan *Plan, inst *rel.Instance) (Result, error) {
	rounds, p, err := plan.Program(inst)
	if err != nil {
		return Result{}, err
	}
	c, err := mpc.Simulate(rounds, p, inst)
	if err != nil {
		return Result{}, fmt.Errorf("core: %s: %w", plan.Algorithm, err)
	}
	return Profile(c), nil
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
