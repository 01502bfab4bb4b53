package core_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"mpclogic/internal/core"
	"mpclogic/internal/cq"
	"mpclogic/internal/gym"
	"mpclogic/internal/mapreduce"
	"mpclogic/internal/mpc"
	"mpclogic/internal/mpcnet"
	"mpclogic/internal/pc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// TestExecuteAllAlgorithms holds every row of the menu, on its home
// workload, to the answer no cluster computed — the query's central
// evaluation, or the transitive closure for the row that fits no query.
// It iterates the table, so a new row is under the oracle on arrival.
func TestExecuteAllAlgorithms(t *testing.T) {
	for _, row := range core.Menu {
		w, err := mpcnet.WorkloadFor(row.Home, "")
		if err != nil {
			t.Fatalf("%s: home workload: %v", row.Name, err)
		}
		q, err := w.CQ()
		if err != nil {
			t.Fatal(err)
		}
		built, err := mpcnet.Build(mpcnet.ProgramSpec{Program: string(row.Name), P: 9, M: 40, Seed: 3, Skew: 0.3})
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		plan := &core.Plan{Algorithm: row.Name, Query: q, Servers: 9, Seed: 3}
		res, err := core.Execute(plan, built.Input)
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		c, err := mpc.Simulate(built.Rounds, built.P, built.Input)
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		want := mapreduce.SemiNaiveClosure(built.Input, "E")
		if q != nil {
			want = cq.Output(q, built.Input)
		}
		got := res.Output.Filter(func(f rel.Fact) bool { return want.Relation(f.Rel) != nil })
		if !got.Equal(want) || want.Len() == 0 {
			t.Errorf("%s: output %d facts, the central answer has %d", row.Name, got.Len(), want.Len())
		}
		if res.Rounds < 1 || res.Rounds != c.Rounds() || res.MaxLoad != c.MaxLoad() || res.TotalComm != c.TotalComm() {
			t.Errorf("%s: the profile %+v is not that of the program run on mpc.Simulate", row.Name, res)
		}
	}
}

// TestPlanRefusals: everything the menu cannot run is refused with the
// one typed error before a round exists — an unknown name (naming every
// row), a query the row does not fit, the generic join where it is not
// an engine.
func TestPlanRefusals(t *testing.T) {
	a := core.NewAnalyzer()
	tri, _ := a.ParseQuery("H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	join, _ := a.ParseQuery("H(x, y, z) :- R(x, y), S(y, z)")
	neg, _ := a.ParseQuery("H(x) :- R(x), not S(x)")
	for _, plan := range []*core.Plan{
		{Algorithm: "bogus", Query: tri},
		{Algorithm: core.AlgoRepartition, Query: tri},
		{Algorithm: core.AlgoYannakakis, Query: tri},
		{Algorithm: core.AlgoCascade, Query: join},
		{Algorithm: core.AlgoTC, Query: tri},
		{Algorithm: core.AlgoHyperCube},
		{Algorithm: core.AlgoHyperCube, Query: neg},
		{Algorithm: core.AlgoHyperCube, Query: neg, WCOJ: true},
		{Algorithm: core.AlgoGYM, Query: tri, WCOJ: true},
		{Algorithm: core.AlgoTC, WCOJ: true},
	} {
		plan.Servers = 4
		_, err := core.Execute(plan, rel.NewInstance())
		var pe *core.PlanError
		if !errors.As(err, &pe) || pe.Algorithm != plan.Algorithm {
			t.Errorf("%+v: refused with %v, want a core.PlanError", plan, err)
		}
		if plan.Algorithm == "bogus" && !strings.Contains(err.Error(), core.Names()) {
			t.Errorf("the unknown-algorithm refusal %q does not list the menu", err)
		}
	}

	// A renamed triangle is still the triangle.
	renamed, _ := a.ParseQuery("H(a, b, c) :- T(c, a), R(a, b), S(b, c)")
	if _, err := (&core.Plan{Algorithm: core.AlgoCascade, Query: renamed, Servers: 4}).Row(); err != nil {
		t.Errorf("cascade refused an equivalent of the triangle query: %v", err)
	}
}

// TestGenericJoinFailsLikeTheEvaluator: over data that holds a relation
// at another arity than the query's atom — wider or narrower — the
// HyperCube round answers the same with either local engine: the atom
// matches nothing, and nothing indexes past a tuple.
func TestGenericJoinFailsLikeTheEvaluator(t *testing.T) {
	a := core.NewAnalyzer()
	inst := rel.MustInstance(a.Dict, "R(a,b)", "R(b,c)", "S(b,c)", "S(c,a)", "T(b)")
	for _, src := range []string{
		"H(x, y, z) :- R(x, y, z), S(y, z)",
		"H(x, y) :- R(x), S(x, y)",
		"H(x, y, z) :- R(x, y), S(y, z), T(z, x)",
		"H(x, y, z) :- R(x, y), S(y, z)",
	} {
		q, err := a.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		var out [2]*rel.Instance
		for k, wcoj := range []bool{false, true} {
			res, err := core.Execute(&core.Plan{Algorithm: core.AlgoHyperCube, Query: q, Servers: 4, Seed: 5, WCOJ: wcoj}, inst)
			if err != nil {
				t.Fatalf("%s wcoj=%v: %v", src, wcoj, err)
			}
			out[k] = res.Output
		}
		if want := cq.Output(q, inst); !out[0].Equal(want) || !out[1].Equal(want) {
			t.Errorf("%s: evaluator %v, generic join %v, central %v", src, out[0], out[1], want)
		}
	}
}

// TestAtomAtAnotherArityMatchesNothing: an atom wider or narrower than
// the relation the instance holds under its name matches nothing on
// every evaluator that reads atoms — the in-memory Yannakakis and
// cascade, the generic join, and the yannakakis and gym rows, whose
// materialize rounds read atoms at every server. Each answers what the
// central evaluation answers, the empty set, and none panics.
func TestAtomAtAnotherArityMatchesNothing(t *testing.T) {
	a := core.NewAnalyzer()
	inst := rel.MustInstance(a.Dict, "R(a,b)", "R(b,c)", "S(a,d)", "S(c,a)")
	for _, src := range []string{
		"H(x) :- R(x, y, z), S(z, w)",
		"H(x) :- R(x), S(x, w)",
	} {
		q, err := a.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		if want := cq.Evaluate(q, inst); want.Len() != 0 {
			t.Fatalf("%s: the central evaluation answers %v, want ∅", src, want.Tuples())
		}
		check := func(engine string, got *rel.Relation, err error) {
			t.Helper()
			if err != nil || got.Len() != 0 {
				t.Errorf("%s by %s: %v (err %v), want ∅", src, engine, got.Tuples(), err)
			}
		}
		y, _, err := gym.Yannakakis(q, inst)
		check("gym.Yannakakis", y, err)
		c, _, err := gym.CascadeJoin(q, inst)
		check("gym.CascadeJoin", c, err)
		g, err := cq.GenericJoin(q, inst)
		check("cq.GenericJoin", g, err)
		for _, algo := range []core.Algorithm{core.AlgoYannakakis, core.AlgoGYM} {
			res, err := core.Execute(&core.Plan{Algorithm: algo, Query: q, Servers: 4, Seed: 5}, inst)
			if err != nil {
				t.Fatalf("%s on the %s row: %v", src, algo, err)
			}
			check(string(algo)+" row", res.Output.EnsureRelation("H", 1), nil)
		}
	}
}

// sized is a router with the width its builder was given: what makes a
// closure (the grouping round's) a policy pc can be asked about.
type sized struct {
	mpc.Router
	p int
}

func (s sized) NumNodes() int { return s.p }

// TestOneRoundRowsAreParallelCorrect: Section 3's one-round rows are
// Section 4-correct. The reshuffle of a one-round algorithm is a
// distribution policy, and the algorithm computes its query on every
// instance iff the query is parallel-correct under it — so pc, asked
// about the very Route a row's round carries, must say yes for every
// random query the row fits; and must say no, with a valuation whose
// facts meet nowhere, once a hash join is keyed on the wrong column.
func TestOneRoundRowsAreParallelCorrect(t *testing.T) {
	universe := []rel.Value{0, 1, 7}
	r := rand.New(rand.NewSource(24))
	fitted := map[core.Algorithm]int{}
	for trial := 0; trial < 150; trial++ {
		q := cq.Random(r, cq.SmallJoins)
		for _, algo := range []core.Algorithm{core.AlgoHyperCube, core.AlgoRepartition, core.AlgoGrouping} {
			p := []int{2, 4, 9}[trial%3] // grouping grids of side 1, 2 and 3
			plan := &core.Plan{Algorithm: algo, Query: q, Servers: p, Seed: r.Uint64()}
			rounds, width, err := plan.Program(nil)
			if err != nil {
				continue // the row does not fit q
			}
			fitted[algo]++
			pol, ok := rounds[0].Route.(policy.Policy)
			if !ok {
				pol = sized{rounds[0].Route, width}
			}
			if ok, w, err := pc.ParallelCorrect(q, pol, universe); err != nil || !ok {
				t.Fatalf("%s, p=%d: %v is not parallel-correct under its own reshuffle: %v %v", algo, p, q, w, err)
			}
		}
	}
	for _, algo := range []core.Algorithm{core.AlgoHyperCube, core.AlgoRepartition, core.AlgoGrouping} {
		if fitted[algo] < 10 {
			t.Errorf("%s fitted %d random queries; the law needs more", algo, fitted[algo])
		}
	}

	q := cq.MustParse(rel.NewDict(), "H(x, y, z) :- R(x, y), S(y, z)")
	misKeyed := mpc.ByRelation(map[string]mpc.Router{"R": mpc.HashOn(4, []int{0}, 1), "S": mpc.HashOn(4, []int{0}, 1)}).(policy.Policy)
	ok, w, err := pc.ParallelCorrect(q, misKeyed, universe)
	if err != nil || ok {
		t.Fatalf("R hashed on x, not on the join column: ParallelCorrect = %v, %v", ok, err)
	}
	if policy.MeetsAtSomeNode(misKeyed, w.Facts) {
		t.Errorf("the witness %v meets at a node", w)
	}
}
