package mpclogic

// Cross-module integration tests: every execution path — centralized
// CQ evaluation, all MPC algorithms, MapReduce, Datalog, and the
// asynchronous transducer strategies — must agree on the same answers,
// and the static parallel-correctness analysis must predict the
// dynamic behaviour of the distributions the other modules build.

import (
	"fmt"
	"math/rand"
	"testing"

	"mpclogic/internal/core"
	"mpclogic/internal/cq"
	"mpclogic/internal/datalog"
	"mpclogic/internal/gym"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mapreduce"
	"mpclogic/internal/mono"
	"mpclogic/internal/mpc"
	"mpclogic/internal/pc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
	"mpclogic/internal/transducer"
	"mpclogic/internal/workload"
)

// randomInstance draws a small instance over binary relations R, S, T.
func randomInstance(r *rand.Rand, vals, facts int) *rel.Instance {
	i := rel.NewInstance()
	names := []string{"R", "S", "T"}
	for k := 0; k < facts; k++ {
		i.Add(rel.NewFact(names[r.Intn(3)], rel.Value(r.Intn(vals)), rel.Value(r.Intn(vals))))
	}
	return i
}

// Every MPC algorithm agrees with centralized evaluation on a zoo of
// queries and random instances.
func TestIntegrationMPCAlgorithmsAgree(t *testing.T) {
	d := rel.NewDict()
	tri := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	path := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z)")
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		inst := randomInstance(r, 6, 5+r.Intn(30))
		for _, tc := range []struct {
			q    *cq.CQ
			algo core.Algorithm
		}{
			{tri, core.AlgoHyperCube},
			{tri, core.AlgoGYM},
			{path, core.AlgoHyperCube},
			{path, core.AlgoRepartition},
			{path, core.AlgoGrouping},
			{path, core.AlgoYannakakis},
		} {
			plan := &core.Plan{Algorithm: tc.algo, Query: tc.q, Servers: 4 + r.Intn(12), Seed: uint64(trial)}
			res, err := core.Execute(plan, inst)
			if err != nil {
				t.Fatalf("%s: %v", tc.algo, err)
			}
			want := cq.Output(tc.q, inst)
			got := res.Output.Filter(func(f rel.Fact) bool { return f.Rel == tc.q.Head.Rel })
			if !got.Equal(want) {
				t.Fatalf("trial %d %s on %v: got %d facts, want %d",
					trial, tc.algo, tc.q, got.Len(), want.Len())
			}
		}
	}
}

// Proposition 4.6 across modules: the HyperCube grid built by the
// hypercube package, viewed as a distribution policy, is judged
// parallel-correct by the pc package, and the dynamic one-round
// evaluation confirms it on random instances.
func TestIntegrationGridSaturationPredictsExecution(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	universe := []rel.Value{0, 1, 2}
	g, err := hypercube.NewGrid(q, map[string]int{"x": 2, "y": 2, "z": 2}, 13)
	if err != nil {
		t.Fatal(err)
	}
	ok, w, err := pc.ParallelCorrect(q, g, universe)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("grid not parallel-correct: %v", w)
	}
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		inst := randomInstance(r, 3, r.Intn(20))
		if !pc.ParallelCorrectOn(q, g, inst) {
			t.Fatalf("static analysis said correct, instance %v disagrees", inst)
		}
	}
}

// Transitive closure three ways: Datalog semi-naive, MapReduce
// (linear and doubling), and the semi-naive reference.
func TestIntegrationTransitiveClosureAgree(t *testing.T) {
	d := rel.NewDict()
	prog := datalog.MustParse(d, "TC(x, y) :- E(x, y)\nTC(x, y) :- TC(x, z), E(z, y)")
	for seed := int64(0); seed < 4; seed++ {
		g := workload.RandomGraph(14, 24, seed)
		fromDatalog, err := datalog.EvalQuery(prog, g, "TC")
		if err != nil {
			t.Fatal(err)
		}
		fromMR, err := mapreduce.TransitiveClosure(4, g, "E", true)
		if err != nil {
			t.Fatal(err)
		}
		ref := mapreduce.SemiNaiveClosure(g, "E")
		if !fromDatalog.Equal(ref) || !fromMR.Closure.Equal(ref) {
			t.Fatalf("seed %d: closure mismatch (datalog %d, MR %d, ref %d)",
				seed, fromDatalog.Len(), fromMR.Closure.Len(), ref.Len())
		}
	}
}

// The CALM pipeline end to end: classify a Datalog program, run the
// prescribed strategy on a transducer network, compare against the
// centralized Datalog engine.
func TestIntegrationCALMPipeline(t *testing.T) {
	d := rel.NewDict()
	prog := datalog.MustParse(d, "TC(x, y) :- E(x, y)\nTC(x, y) :- TC(x, z), E(z, y)")
	if datalog.Classify(prog).MonotonicityClass() != mono.M {
		t.Fatalf("TC program not in M")
	}
	q := func(i *rel.Instance) *rel.Instance {
		out, err := datalog.EvalQuery(prog, i, "TC")
		if err != nil {
			return rel.NewInstance()
		}
		return out
	}
	g := workload.RandomGraph(10, 18, 2)
	want := q(g)
	for seed := int64(0); seed < 4; seed++ {
		n := transducer.New(3, func() transducer.Program { return transducer.MonotoneBroadcast(q) },
			transducer.WithSeed(seed))
		if err := n.LoadParts(policy.Distribute(&policy.Hash{Nodes: 3}, g)); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
		if !n.Output().Equal(want) {
			t.Fatalf("seed %d: distributed TC differs from centralized", seed)
		}
	}
}

// The semi-connected ¬TC program of Example 5.13 end to end: classify
// → Mdisjoint → run disjoint-complete strategy on a domain-guided
// network → compare against the stratified Datalog engine.
func TestIntegrationSemiConnectedPipeline(t *testing.T) {
	d := rel.NewDict()
	prog := datalog.MustParse(d, `
TC(x, y) :- E(x, y)
TC(x, y) :- TC(x, z), TC(z, y)
OUT(x, y) :- ADom(x), ADom(y), not TC(x, y)`)
	if datalog.Classify(prog).MonotonicityClass() != mono.Mdisjoint {
		t.Fatalf("¬TC program not classified Mdisjoint")
	}
	q := func(i *rel.Instance) *rel.Instance {
		out, err := datalog.EvalQuery(prog, i, "OUT")
		if err != nil {
			return rel.NewInstance()
		}
		return out
	}
	g := workload.ComponentsGraph(2, 3)
	want := q(g)
	pol := &policy.DomainGuided{Nodes: 3, DefaultWidth: 1}
	for seed := int64(0); seed < 4; seed++ {
		n := transducer.New(3, func() transducer.Program { return &transducer.DisjointComplete{Q: q} },
			transducer.WithSeed(seed), transducer.WithPolicy(pol))
		if err := n.LoadPolicy(g, pol); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
		if !n.Output().Equal(want) {
			t.Fatalf("seed %d: distributed ¬TC (%d) differs from centralized (%d)",
				seed, n.Output().Len(), want.Len())
		}
	}
}

// Property: for random finite policies, the pc package's static
// verdict matches dynamic one-round evaluation on every instance over
// the universe — Proposition 4.6 as an executable contract between
// modules.
func TestIntegrationStaticDynamicContract(t *testing.T) {
	d := rel.NewDict()
	queries := []*cq.CQ{
		cq.MustParse(d, "H(x, z) :- R(x, y), S(y, z)"),
		cq.MustParse(d, "H(x) :- R(x, y), S(y, x)"),
		cq.MustParse(d, "H(x, z) :- R(x, y), R(y, z), R(x, x)"),
	}
	universe := []rel.Value{0, 1}
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		q := queries[trial%len(queries)]
		schema, err := q.Schema()
		if err != nil {
			t.Fatal(err)
		}
		pol := policy.NewFinite(2, universe)
		for _, f := range schema.AllFacts(universe) {
			for κ := 0; κ < 2; κ++ {
				if r.Intn(3) > 0 {
					pol.Assign(policy.Node(κ), f)
				}
			}
		}
		static, _, err := pc.ParallelCorrect(q, pol, universe)
		if err != nil {
			t.Fatal(err)
		}
		dynamic := true
		if err := cq.EachInstance(schema, universe, func(i *rel.Instance) bool {
			if !pc.ParallelCorrectOn(q, pol, i) {
				dynamic = false
				return false
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if static != dynamic {
			t.Fatalf("trial %d: static=%v dynamic=%v for %v", trial, static, dynamic, q)
		}
	}
}

// The planner's choices are all executable and correct end to end.
func TestIntegrationPlannerEndToEnd(t *testing.T) {
	d := rel.NewDict()
	cases := []struct {
		src              string
		inst             *rel.Instance
		oneRound, skewed bool
	}{
		{"H(x, y, z) :- R(x, y), S(y, z), T(z, x)", workload.TriangleSkewFree(60), true, false},
		{"H(x, y, z) :- R(x, y), S(y, z), T(z, x)", workload.TriangleSkewFree(60), false, false},
		{"H(x, y, z) :- R(x, y), S(y, z)", workload.JoinSkewed(80, 0.4), true, true},
		{"H(a, c) :- R0(a, b), R1(b, c)", firstOf(workload.AcyclicChain(2, 50, 0.2, 3)), false, false},
	}
	for k, c := range cases {
		q := cq.MustParse(d, c.src)
		plan, err := core.ChoosePlan(q, 9, c.oneRound, c.skewed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Execute(plan, c.inst)
		if err != nil {
			t.Fatalf("case %d (%s): %v", k, plan.Algorithm, err)
		}
		want := cq.Output(q, c.inst)
		got := res.Output.Filter(func(f rel.Fact) bool { return f.Rel == q.Head.Rel })
		if !got.Equal(want) {
			t.Fatalf("case %d (%s): wrong result", k, plan.Algorithm)
		}
	}
}

func firstOf(i *rel.Instance, _ []string) *rel.Instance { return i }

// GYM decompositions evaluate correctly for a family of cyclic
// queries of growing cycle length.
func TestIntegrationGYMCycles(t *testing.T) {
	d := rel.NewDict()
	for _, k := range []int{3, 4, 5} {
		// Cycle query over relations E0…E(k−1): Ei(x_i, x_{i+1 mod k}).
		var src string
		src = "H("
		for i := 0; i < k; i++ {
			if i > 0 {
				src += ", "
			}
			src += fmt.Sprintf("v%d", i)
		}
		src += ") :- "
		for i := 0; i < k; i++ {
			if i > 0 {
				src += ", "
			}
			src += fmt.Sprintf("E%d(v%d, v%d)", i, i, (i+1)%k)
		}
		q := cq.MustParse(d, src)
		// Matching data with m cycles plus noise.
		inst := rel.NewInstance()
		m := 30
		for t := 0; t < m; t++ {
			for i := 0; i < k; i++ {
				inst.Add(rel.NewFact(fmt.Sprintf("E%d", i),
					rel.Value(1000*(i+1)+t), rel.Value(1000*((i+1)%k+1)+t)))
			}
		}
		inst.Add(rel.NewFact("E0", 1, 2))
		want := cq.Output(q, inst)
		prog, err := gym.GYMProgram(q, 8, uint64(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		dec, _ := gym.Decompose(q) // GYMProgram decomposed q, so this cannot fail
		c, err := mpc.Simulate(prog, 8, inst)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := c.Output(); !got.Equal(want) {
			t.Fatalf("k=%d: GYM wrong (%d vs %d facts, %d bags)", k, got.Len(), want.Len(), len(dec.Bags))
		}
	}
}

// Randomized cross-check: distributed Yannakakis and GYM agree with
// centralized evaluation on random acyclic and cyclic query/instance
// pairs.
func TestIntegrationGYMRandomized(t *testing.T) {
	d := rel.NewDict()
	acyclic := []*cq.CQ{
		cq.MustParse(d, "H(a, c) :- R(a, b), S(b, c)"),
		cq.MustParse(d, "H(a) :- R(a, b), S(b, c), T(c, a2)"),
		cq.MustParse(d, "H(b) :- R(a, b), S(b, c), T(b, x)"),
	}
	cyclic := []*cq.CQ{
		cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)"),
		cq.MustParse(d, "H(x, y) :- R(x, y), S(y, x)"),
	}
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		inst := randomInstance(r, 5, 5+r.Intn(25))
		p := 2 + r.Intn(8)
		for _, q := range acyclic {
			got, err := core.Execute(&core.Plan{Algorithm: core.AlgoYannakakis, Query: q, Servers: p, Seed: uint64(trial)}, inst)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Output.Equal(cq.Output(q, inst)) {
				t.Fatalf("trial %d: distributed yannakakis wrong for %v on %v", trial, q, inst)
			}
		}
		for _, q := range cyclic {
			got, err := core.Execute(&core.Plan{Algorithm: core.AlgoGYM, Query: q, Servers: p, Seed: uint64(trial)}, inst)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Output.Equal(cq.Output(q, inst)) {
				t.Fatalf("trial %d: GYM wrong for %v on %v", trial, q, inst)
			}
		}
	}
}

// Randomized cross-check: the worst-case-optimal local engine and the
// binary-plan engine agree under the HyperCube shuffle.
func TestIntegrationWCOJUnderHyperCube(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 10; trial++ {
		inst := randomInstance(r, 6, 10+r.Intn(30))
		for _, wcoj := range []bool{false, true} {
			plan := &core.Plan{Algorithm: core.AlgoHyperCube, Query: q, Servers: 8, Seed: uint64(trial), WCOJ: wcoj}
			res, err := core.Execute(plan, inst)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Output.Filter(func(f rel.Fact) bool { return f.Rel == "H" })
			if !got.Equal(cq.Output(q, inst)) {
				t.Fatalf("trial %d wcoj=%v: wrong output", trial, wcoj)
			}
		}
	}
}
