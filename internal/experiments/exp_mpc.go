package experiments

import (
	"fmt"
	"math"

	"mpclogic/internal/core"
	"mpclogic/internal/cq"
	"mpclogic/internal/gym"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mapreduce"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// Experiments for the synchronous half of the paper (Section 3):
// single-round load shapes, HyperCube's τ*-driven bound, skew, and the
// multi-round algorithms. The parameter sweeps (per-m, per-p rows) are
// declared as independent cells so the sweep scheduler can fan them
// out; each cell rebuilds its own inputs from the deterministic
// workload generators.

func init() {
	register(Def{
		ID:    "E31a-repartition",
		Name:  "E31a",
		Title: "repartition join load (Example 3.1(1a))",
		Claim: "max load O(m/p) without skew; not resilient to skew (→ Θ(m))",
		Pre:   []string{fmt.Sprintf("%-8s %-10s %-12s %-10s %-12s", "m", "skew-free", "2m/p ref", "skewed50", "m ref")},
		Cells: []Cell{
			cellRepartition(4000),
			cellRepartition(8000),
			cellRepartition(16000),
		},
	})
	register(Def{
		ID:    "E31b-grouping",
		Name:  "E31b",
		Title: "grouping join load (Example 3.1(1b), Ullman's drug interaction)",
		Claim: "max load O(m/√p) independent of skew",
		Pre:   []string{fmt.Sprintf("%-8s %-10s %-10s %-12s", "m", "skew-free", "skewed50", "2m/√p ref")},
		Cells: []Cell{
			cellGrouping(4000),
			cellGrouping(8000),
			cellGrouping(16000),
		},
	})
	register(Def{
		ID:    "E31c-cascade",
		Name:  "E31c",
		Title: "two-round cascaded triangle vs one-round HyperCube (Example 3.1(2))",
		Claim: "the cascade needs 2 rounds and ships the intermediate K = R⋈S; HyperCube does one round",
		Cells: []Cell{{Params: "m=5000,p=64", Run: cellCascade}},
	})
	register(Def{
		ID:    "E32-hypercube",
		Name:  "E32",
		Title: "HyperCube triangle load (Example 3.2, Beame-Koutris-Suciu)",
		Claim: "max load O(m/p^{2/3}) on skew-free data; τ* = 3/2",
		Pre:   []string{fmt.Sprintf("%-6s %-10s %-14s %-8s", "p", "maxLoad", "3m/p^{2/3}", "ratio")},
		Cells: []Cell{
			cellHyperCube(8),
			cellHyperCube(27),
			cellHyperCube(64),
			cellHyperCube(125),
		},
	})
	register(Def{
		ID:    "SHARES-exponents",
		Name:  "SHARES",
		Title: "optimal share exponents vs fractional edge packing",
		Claim: "the share LP optimum t equals 1/τ*; triangle shares are p^{1/3} each",
		Pre:   []string{fmt.Sprintf("%-55s %-6s %-8s", "query", "τ*", "t=1/τ*")},
		Cells: []Cell{
			cellShareExponent("H(x, y, z) :- R(x, y), S(y, z), T(z, x)"),
			cellShareExponent("H(x, y, z) :- R(x, y), S(y, z)"),
			cellShareExponent("H(x, y, z, w) :- R(x, y), S(y, z), T(z, w), U(w, x)"),
			cellShareExponent("H(x, a, b, c) :- R(x, a), S(x, b), T(x, c)"),
			{Params: "integer-shares-p=64", Run: cellIntegerShares},
		},
	})
	register(Def{
		ID:    "SKEW-rounds",
		Name:  "SKEW",
		Title: "skewed triangle: one round vs two rounds (Section 3.2)",
		Claim: "one-round load is provably ≥ m/√p under skew; two rounds recover the skew-free exponent",
		Pre:   []string{fmt.Sprintf("%-6s %-14s %-14s %-12s %-12s", "p", "1-round load", "2-round load", "m/√p", "3m/p^{2/3}")},
		Cells: []Cell{
			cellSkewRounds(64),
			cellSkewRounds(256),
		},
	})
	register(Def{
		ID:    "GYM-intermediates",
		Name:  "GYM",
		Title: "Yannakakis vs cascade intermediates; GYM rounds (Section 3.2)",
		Claim: "semijoin reduction keeps intermediates at output scale; cascades can blow up; GYM pays rounds for that",
		Cells: []Cell{{Params: "hub+triangle", Run: cellGYM}},
	})
	register(Def{
		ID:    "MR-transitive-closure",
		Name:  "MR",
		Title: "transitive closure in MapReduce (Afrati-Ullman, Section 3.2)",
		Claim: "MapReduce programs are MPC algorithms; nonlinear doubling needs O(log n) jobs vs Θ(n) for the linear plan",
		Cells: []Cell{{Params: "n=64", Run: cellMapReduceTC}},
	})
	register(Def{
		ID:    "TRADEOFF-replication",
		Name:  "TRADEOFF",
		Title: "replication rate vs reducer size (Das Sarma et al., Section 3.1)",
		Claim: "halving the reducer size (load) costs a higher replication rate; for the triangle the rate is p^{1/3}",
		// Monotonicity across the p ladder is the claim itself, so this
		// stays one cell rather than one per p.
		Cells: []Cell{{Params: "p=8,64,512", Run: cellReplicationTradeoff}},
	})
	register(Def{
		ID:    "MATCHING-multiround",
		Name:  "MATCHING",
		Title: "tree-like queries on matching databases (Section 3.2, multi-round bounds)",
		Claim: "on matching databases, multi-round (Yannakakis-style) evaluation of tree-like queries runs at load O(m/p) per round",
		Pre:   []string{fmt.Sprintf("%-6s %-12s %-12s", "p", "max load", "3m/p ref")},
		Cells: []Cell{
			cellMatching(8),
			cellMatching(32),
			cellMatching(128),
		},
	})
}

// execute runs the plan on inst and fails the report, naming the
// algorithm, when the facts it computes for want's relations are not
// want.
func (r *Result) execute(plan *core.Plan, inst, want *rel.Instance) (core.Result, error) {
	got, err := core.Execute(plan, inst)
	if err == nil && !got.Output.Filter(func(f rel.Fact) bool { return want.Relation(f.Rel) != nil }).Equal(want) {
		r.Pass = false
		r.rowf("%s: output WRONG", plan.Algorithm)
	}
	return got, err
}

// loadOnly is r's reshuffle alone, as a program: loads depend on
// routing only, and the skewed joins' outputs are quadratic.
func loadOnly(r mpc.Round) []mpc.Round {
	r.Compute = nil
	return []mpc.Round{r}
}

// joinLoads is the max load of a one-round binary join of m tuples a
// side on p servers, without skew and with a heavy hitter holding half
// of each relation.
func joinLoads(build func(*cq.CQ, int, uint64) (mpc.Round, error), m, p int) (free, skewed int, err error) {
	r, err := build(cq.MustParse(rel.NewDict(), "H(x, y, z) :- R(x, y), S(y, z)"), p, 7)
	if err != nil {
		return 0, 0, err
	}
	cf, err := mpc.Simulate(loadOnly(r), p, workload.JoinSkewFree(m))
	if err != nil {
		return 0, 0, err
	}
	cs, err := mpc.Simulate(loadOnly(r), p, workload.JoinSkewed(m, 0.5))
	return cf.MaxLoad(), cs.MaxLoad(), err
}

// Example 3.1(1a): repartition join load — m/p without skew, Θ(m)
// with a heavy hitter. One cell per input size m.
func cellRepartition(m int) Cell {
	return Cell{Params: fmt.Sprintf("m=%d", m), Run: func() (*Result, error) {
		res := newResult()
		p := 16
		free, skewed, err := joinLoads(hypercube.RepartitionJoin, m, p)
		if err != nil {
			return nil, err
		}
		res.rowf("%-8d %-10d %-12d %-10d %-12d", m, free, 2*m/p, skewed, m)
		if free > 2*(2*m/p) || skewed < m {
			res.Pass = false
		}
		return res, nil
	}}
}

// Example 3.1(1b): grouping join load — m/√p regardless of skew. One
// cell per input size m.
func cellGrouping(m int) Cell {
	return Cell{Params: fmt.Sprintf("m=%d", m), Run: func() (*Result, error) {
		res := newResult()
		p := 16
		ref := 2 * m / int(math.Sqrt(float64(p)))
		free, skewed, err := joinLoads(hypercube.GroupingJoin, m, p)
		if err != nil {
			return nil, err
		}
		res.rowf("%-8d %-10d %-10d %-12d", m, free, skewed, ref)
		// Both regimes within 1.5× of the reference: skew-independent.
		if float64(free) > 1.5*float64(ref) || float64(skewed) > 1.5*float64(ref) {
			res.Pass = false
		}
		return res, nil
	}}
}

// Example 3.1(2): two-round cascaded triangle — correct, but ships the
// intermediate join result, unlike the one-round HyperCube.
func cellCascade() (*Result, error) {
	res := newResult()
	q := gym.TriangleCQ()
	m, p := 5000, 64
	inst := workload.TriangleSkewFree(m)
	want := cq.Output(q, inst)

	cc, err := res.execute(&core.Plan{Algorithm: core.AlgoCascade, Query: q, Servers: p, Seed: 3}, inst, want)
	if err != nil {
		return nil, err
	}
	hc, err := res.execute(&core.Plan{Algorithm: core.AlgoHyperCube, Query: q, Servers: p, Seed: 3}, inst, want)
	if err != nil {
		return nil, err
	}
	res.rowf("cascade:   rounds=%d totalComm=%d maxLoad=%d", cc.Rounds, cc.TotalComm, cc.MaxLoad)
	res.rowf("hypercube: rounds=%d totalComm=%d maxLoad=%d", hc.Rounds, hc.TotalComm, hc.MaxLoad)
	if cc.Rounds != 2 || hc.Rounds != 1 {
		res.Pass = false
	}
	return res, nil
}

// Example 3.2 / BKS: HyperCube triangle load tracks 3m/p^{2/3} on
// skew-free data as p grows. One cell per server count p.
func cellHyperCube(p int) Cell {
	return Cell{Params: fmt.Sprintf("p=%d", p), Run: func() (*Result, error) {
		res := newResult()
		q := gym.TriangleCQ()
		m := 8000
		inst := workload.TriangleSkewFree(m)
		g, err := hypercube.NewOptimalGrid(q, p, 11)
		if err != nil {
			return nil, err
		}
		c, err := mpc.Simulate(loadOnly(hypercube.HyperCubeRound(g)), g.P(), inst)
		if err != nil {
			return nil, err
		}
		load := c.MaxLoad()
		ref := 3 * float64(m) / math.Pow(float64(p), 2.0/3.0)
		ratio := float64(load) / ref
		res.rowf("%-6d %-10d %-14.0f %-8.2f", p, load, ref, ratio)
		if ratio > 2.0 || ratio < 0.3 {
			res.Pass = false
		}
		return res, nil
	}}
}

// Shares exponents for a query zoo match 1/τ* (LP duality). One cell
// per query.
func cellShareExponent(src string) Cell {
	return Cell{Params: src, Run: func() (*Result, error) {
		res := newResult()
		d := rel.NewDict()
		q := cq.MustParse(d, src)
		pack, err := cq.FractionalEdgePacking(q)
		if err != nil {
			return nil, err
		}
		_, tval, err := cq.ShareExponents(q)
		if err != nil {
			return nil, err
		}
		res.rowf("%-55s %-6.2f %-8.3f", src, pack.Value, tval)
		if math.Abs(tval-1/pack.Value) > 1e-6 {
			res.Pass = false
		}
		return res, nil
	}}
}

func cellIntegerShares() (*Result, error) {
	res := newResult()
	d := rel.NewDict()
	shares, _, err := hypercube.OptimalShares(cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)"), 64)
	if err != nil {
		return nil, err
	}
	res.rowf("triangle integer shares at p=64: %v", shares)
	for _, s := range shares {
		if s != 4 {
			res.Pass = false
		}
	}
	return res, nil
}

// Section 3.2: under skew one round is stuck at ~m/√p while two rounds
// recover a lower load. One cell per server count p.
func cellSkewRounds(p int) Cell {
	return Cell{Params: fmt.Sprintf("p=%d", p), Run: func() (*Result, error) {
		res := newResult()
		q := gym.TriangleCQ()
		m := 20000
		inst := workload.TriangleSkewed(m, 0.5)
		heavy := rel.NewValueSet(workload.HeavyHitters(inst, "R", 1, m/16)...)
		g, err := hypercube.NewOptimalGrid(q, p, 5)
		if err != nil {
			return nil, err
		}
		c1, err := mpc.Simulate(loadOnly(hypercube.HyperCubeRound(g)), g.P(), inst)
		if err != nil {
			return nil, err
		}
		c2, err := mpc.Simulate(gym.SkewTriangleProgram(p, heavy, 5, g), p, inst)
		if err != nil {
			return nil, err
		}
		one, two := c1.MaxLoad(), c2.MaxLoad()
		sq := float64(m) / math.Sqrt(float64(p))
		cube := 3 * float64(m) / math.Pow(float64(p), 2.0/3.0)
		res.rowf("%-6d %-14d %-14d %-12.0f %-12.0f", p, one, two, sq, cube)
		if two >= one {
			res.Pass = false
		}
		return res, nil
	}}
}

// GYM / Yannakakis: intermediates bounded, cascade blows up;
// distributed Yannakakis trades rounds for communication.
func cellGYM() (*Result, error) {
	res := newResult()
	d := rel.NewDict()
	q := cq.MustParse(d, "H(a, dd) :- R0(a, b), R1(b, c), R2(c, dd)")
	// Hub data: big fan product, small final output.
	inst := rel.NewInstance()
	hub := rel.Value(1 << 30)
	for i := 0; i < 300; i++ {
		inst.Add(rel.NewFact("R0", rel.Value(i), hub))
		inst.Add(rel.NewFact("R1", hub, rel.Value(10000+i)))
	}
	for j := 0; j < 10; j++ {
		inst.Add(rel.NewFact("R2", rel.Value(10000+j), rel.Value(20000+j)))
	}
	outY, stY, err := gym.Yannakakis(q, inst)
	if err != nil {
		return nil, err
	}
	_, stC, err := gym.CascadeJoin(q, inst)
	if err != nil {
		return nil, err
	}
	res.rowf("output size:            %d", outY.Len())
	res.rowf("yannakakis max interm.: %d", stY.MaxIntermediate)
	res.rowf("cascade max interm.:    %d", stC.MaxIntermediate)
	if stY.MaxIntermediate > 2*outY.Len() || stC.MaxIntermediate < 10*stY.MaxIntermediate {
		res.Pass = false
	}
	dy, err := res.execute(&core.Plan{Algorithm: core.AlgoYannakakis, Query: q, Servers: 8, Seed: 3}, inst, cq.Output(q, inst))
	if err != nil {
		return nil, err
	}
	res.rowf("distributed yannakakis: rounds=%d totalComm=%d", dy.Rounds, dy.TotalComm)
	tri := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	triInst := workload.TriangleSkewFree(500)
	dec, err := gym.Decompose(tri)
	if err != nil {
		return nil, err
	}
	cg, err := res.execute(&core.Plan{Algorithm: core.AlgoGYM, Query: tri, Servers: 16, Seed: 5}, triInst, cq.Output(tri, triInst))
	if err != nil {
		return nil, err
	}
	res.rowf("GYM triangle: bags=%d width=%d rounds=%d totalComm=%d",
		len(dec.Bags), dec.Width(), cg.Rounds, cg.TotalComm)
	return res, nil
}

// MapReduce transitive closure: linear vs doubling round counts.
func cellMapReduceTC() (*Result, error) {
	res := newResult()
	n := 64
	g := workload.PathGraph(n)
	lin, err := mapreduce.TransitiveClosure(8, g, "E", false)
	if err != nil {
		return nil, err
	}
	dbl, err := mapreduce.TransitiveClosure(8, g, "E", true)
	if err != nil {
		return nil, err
	}
	if !lin.Closure.Equal(dbl.Closure) {
		res.Pass = false
		res.rowf("closures DIFFER")
	}
	res.rowf("path length n=%d, closure size=%d", n, lin.Closure.Len())
	res.rowf("linear plan:   %d jobs", lin.Rounds)
	res.rowf("doubling plan: %d jobs (⌈log₂ n⌉+1 = %d)", dbl.Rounds, int(math.Ceil(math.Log2(float64(n))))+1)
	if dbl.Rounds >= lin.Rounds || dbl.Rounds > int(math.Ceil(math.Log2(float64(n))))+2 {
		res.Pass = false
	}
	return res, nil
}

// Das Sarma-Afrati-Salihoglu-Ullman [27]: there is a trade-off between
// the replication rate and the reducer size — shrinking the per-server
// load forces more total communication. For the triangle with shares
// p^{1/3}, the replication rate is p^{1/3}.
func cellReplicationTradeoff() (*Result, error) {
	res := newResult()
	q := gym.TriangleCQ()
	m := 8000
	inst := workload.TriangleSkewFree(m)
	input := inst.Len()
	res.rowf("%-6s %-12s %-14s %-10s", "p", "reducer size", "replication", "p^{1/3}")
	prevLoad, prevRate := 1<<30, 0.0
	for _, p := range []int{8, 64, 512} {
		g, err := hypercube.NewOptimalGrid(q, p, 11)
		if err != nil {
			return nil, err
		}
		c, err := mpc.Simulate(loadOnly(hypercube.HyperCubeRound(g)), g.P(), inst)
		if err != nil {
			return nil, err
		}
		rate := float64(c.TotalComm()) / float64(input)
		res.rowf("%-6d %-12d %-14.2f %-10.2f", p, c.MaxLoad(), rate, math.Cbrt(float64(p)))
		if c.MaxLoad() >= prevLoad || rate <= prevRate {
			res.Pass = false // the trade-off must be monotone both ways
		}
		if rate > 1.2*math.Cbrt(float64(p)) {
			res.Pass = false
		}
		prevLoad, prevRate = c.MaxLoad(), rate
	}
	return res, nil
}

// Beame-Koutris-Suciu's multi-round bounds: tree-like conjunctive
// queries on matching databases (every value occurs at most once per
// relation) are computable with load O(m/p) in a number of rounds
// governed by the join-tree depth — the near-matching upper bound the
// paper quotes at the end of Section 3.2. One cell per server count p.
func cellMatching(p int) Cell {
	return Cell{Params: fmt.Sprintf("p=%d", p), Run: func() (*Result, error) {
		res := newResult()
		d := rel.NewDict()
		q := cq.MustParse(d, "H(a, dd) :- R0(a, b), R1(b, c), R2(c, dd)")
		m := 12000
		inst, _ := workload.AcyclicChain(3, m, 0, 1) // matching database: 1:1 everywhere
		c, err := core.Execute(&core.Plan{Algorithm: core.AlgoYannakakis, Query: q, Servers: p, Seed: 5}, inst)
		if err != nil {
			return nil, err
		}
		if c.Output.Len() != m {
			res.Pass = false
			res.rowf("WRONG output size %d at p=%d", c.Output.Len(), p)
		}
		ref := 3 * m / p
		res.rowf("%-6d %-12d %-12d", p, c.MaxLoad, ref)
		// Within a small constant of m/p per relation shipped per round.
		if float64(c.MaxLoad) > 2.0*float64(ref) {
			res.Pass = false
		}
		return res, nil
	}}
}
