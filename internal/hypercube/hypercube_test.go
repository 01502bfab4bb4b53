package hypercube

import (
	"math"
	"math/rand"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/mpc"
	"mpclogic/internal/pc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

func triangleQuery(d *rel.Dict) *cq.CQ {
	return cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
}

func joinQuery(d *rel.Dict) *cq.CQ {
	return cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z)")
}

// runRound loads the instance round-robin, runs the round, and returns
// the cluster.
func runRound(t *testing.T, p int, i *rel.Instance, r mpc.Round) *mpc.Cluster {
	t.Helper()
	c, err := mpc.Simulate([]mpc.Round{r}, p, i)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOptimalSharesTriangle(t *testing.T) {
	d := rel.NewDict()
	q := triangleQuery(d)
	shares, tExp, err := OptimalShares(q, 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tExp-2.0/3.0) > 1e-6 {
		t.Errorf("load exponent = %v, want 2/3", tExp)
	}
	prod := 1
	for v, s := range shares {
		if s != 4 {
			t.Errorf("share of %s = %d, want 4 (= 64^{1/3})", v, s)
		}
		prod *= s
	}
	if prod > 64 {
		t.Errorf("share product %d exceeds p", prod)
	}
}

func TestOptimalSharesJoin(t *testing.T) {
	d := rel.NewDict()
	q := joinQuery(d)
	shares, tExp, err := OptimalShares(q, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tExp-1) > 1e-6 {
		t.Errorf("join load exponent = %v, want 1", tExp)
	}
	// All budget should go to the shared variable y.
	if shares["y"] != 16 || shares["x"] != 1 || shares["z"] != 1 {
		t.Errorf("shares = %v, want all on y", shares)
	}
}

func TestGridGeometry(t *testing.T) {
	d := rel.NewDict()
	q := triangleQuery(d)
	g, err := NewGrid(q, map[string]int{"x": 2, "y": 3, "z": 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.P() != 24 {
		t.Fatalf("P = %d", g.P())
	}
	// Coord/server round trip.
	for s := 0; s < g.P(); s++ {
		c := g.Coord(s)
		if got := g.server(c); got != s {
			t.Errorf("coord round trip %d → %v → %d", s, c, got)
		}
		for i, ci := range c {
			if ci < 0 || ci >= g.Shares[i] {
				t.Errorf("coordinate out of range: %v", c)
			}
		}
	}
}

func TestGridReplication(t *testing.T) {
	d := rel.NewDict()
	q := triangleQuery(d)
	g, err := NewGrid(q, map[string]int{"x": 4, "y": 4, "z": 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Example 3.2: each R(a,b) is replicated α_z = 4 times.
	f := rel.NewFact("R", 10, 20)
	ts := g.Targets(f)
	if len(ts) != 4 {
		t.Errorf("R fact fanout = %d, want 4", len(ts))
	}
	if g.ReplicationOf(q.Body[0]) != 4 {
		t.Errorf("ReplicationOf(R) = %d", g.ReplicationOf(q.Body[0]))
	}
	// All targets share the x and y coordinates.
	c0 := g.Coord(ts[0])
	for _, s := range ts[1:] {
		c := g.Coord(s)
		if c[g.dims["x"]] != c0[g.dims["x"]] || c[g.dims["y"]] != c0[g.dims["y"]] {
			t.Errorf("R targets disagree on bound dims: %v vs %v", c0, c)
		}
	}
}

// The defining property of the HyperCube distribution: for every
// valuation, the three facts it requires meet at exactly one server.
func TestGridValuationsMeet(t *testing.T) {
	d := rel.NewDict()
	q := triangleQuery(d)
	g, err := NewGrid(q, map[string]int{"x": 2, "y": 2, "z": 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for a := rel.Value(0); a < 4; a++ {
		for b := rel.Value(0); b < 4; b++ {
			for c := rel.Value(0); c < 4; c++ {
				facts := []rel.Fact{
					rel.NewFact("R", a, b),
					rel.NewFact("S", b, c),
					rel.NewFact("T", c, a),
				}
				common := map[int]int{}
				for _, f := range facts {
					for _, s := range g.Targets(f) {
						common[s]++
					}
				}
				meet := 0
				for _, n := range common {
					if n == 3 {
						meet++
					}
				}
				if meet != 1 {
					t.Fatalf("valuation (%d,%d,%d) meets at %d servers, want 1", a, b, c, meet)
				}
			}
		}
	}
}

// HyperCube grids strongly saturate their query (remark after
// Definition 4.7), for any shares and hash functions.
func TestGridStronglySaturates(t *testing.T) {
	d := rel.NewDict()
	q := triangleQuery(d)
	for _, shares := range []map[string]int{
		{"x": 2, "y": 2, "z": 2},
		{"x": 1, "y": 3, "z": 2},
		{"x": 4, "y": 1, "z": 1},
	} {
		g, err := NewGrid(q, shares, 11)
		if err != nil {
			t.Fatal(err)
		}
		ok, w, err := pc.StronglySaturates(q, g, []rel.Value{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("grid %v does not strongly saturate: %v", shares, w)
		}
	}
}

func TestHyperCubeCorrectness(t *testing.T) {
	d := rel.NewDict()
	q := triangleQuery(d)
	for _, m := range []int{0, 1, 50} {
		inst := workload.TriangleSkewFree(m)
		// Mix in extra noise edges that close no triangle.
		inst.Add(rel.NewFact("R", 1, 2))
		inst.Add(rel.NewFact("S", 3, 4))
		want := cq.Output(q, inst)

		g, err := NewOptimalGrid(q, 27, 5)
		if err != nil {
			t.Fatal(err)
		}
		c := runRound(t, g.P(), inst, HyperCubeRound(g))
		if !c.Output().Equal(want) {
			t.Errorf("m=%d: hypercube output differs from centralized", m)
		}
	}
}

// The generic join is the round's other local engine: the same answer
// on the same shuffle.
func TestGenericJoinCompute(t *testing.T) {
	d := rel.NewDict()
	q := triangleQuery(d)
	inst := workload.TriangleSkewFree(50)
	inst.Add(rel.NewFact("R", 1, 2))
	g, err := NewOptimalGrid(q, 27, 5)
	if err != nil {
		t.Fatal(err)
	}
	round := HyperCubeRound(g)
	round.Compute = GenericJoinCompute(q)
	if c := runRound(t, g.P(), inst, round); !c.Output().Equal(cq.Output(q, inst)) {
		t.Errorf("hypercube + generic join differs from centralized")
	}
}

func TestHyperCubeSelfJoinAndConstants(t *testing.T) {
	d := rel.NewDict()
	// Self-join: both atoms are E; facts must be routed for both roles.
	q := cq.MustParse(d, "H(x, z) :- E(x, y), E(y, z)")
	inst := workload.PathGraph(30)
	want := cq.Output(q, inst)
	g, err := NewOptimalGrid(q, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	c := runRound(t, g.P(), inst, HyperCubeRound(g))
	if !c.Output().Equal(want) {
		t.Errorf("self-join hypercube incorrect")
	}

	// Constants: only matching facts should travel.
	q2 := cq.MustParse(d, "H(x) :- E(5, x)")
	g2, err := NewOptimalGrid(q2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g2.Targets(rel.NewFact("E", 6, 7))); got != 0 {
		t.Errorf("non-matching fact routed to %d servers", got)
	}
	c2 := runRound(t, g2.P(), inst, HyperCubeRound(g2))
	if !c2.Output().Equal(cq.Output(q2, inst)) {
		t.Errorf("constant-query hypercube incorrect")
	}
}

func TestRepartitionJoinCorrectness(t *testing.T) {
	d := rel.NewDict()
	q := joinQuery(d)
	inst := workload.JoinSkewed(200, 0.3)
	want := cq.Output(q, inst)
	r, err := RepartitionJoin(q, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := runRound(t, 8, inst, r)
	if !c.Output().Equal(want) {
		t.Errorf("repartition join incorrect")
	}
}

func TestGroupingJoinCorrectness(t *testing.T) {
	d := rel.NewDict()
	q := joinQuery(d)
	inst := workload.JoinSkewed(200, 0.5)
	want := cq.Output(q, inst)
	r, err := GroupingJoin(q, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := runRound(t, 16, inst, r)
	if !c.Output().Equal(want) {
		t.Errorf("grouping join incorrect")
	}
}

func TestSkewAwareJoinCorrectness(t *testing.T) {
	d := rel.NewDict()
	q := joinQuery(d)
	m := 300
	inst := workload.JoinSkewed(m, 0.4)
	heavy := rel.NewValueSet(workload.HeavyHitters(inst, "R", 1, m/16)...)
	if len(heavy) == 0 {
		t.Fatal("expected heavy hitters in workload")
	}
	want := cq.Output(q, inst)
	r, err := SkewAwareJoin(q, 16, heavy, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := runRound(t, 16, inst, r)
	if !c.Output().Equal(want) {
		t.Errorf("skew-aware join incorrect")
	}
}

// Load shapes (Examples 3.1, 3.2): grouping beats repartition under
// skew; repartition beats grouping without skew; hypercube load on the
// skew-free triangle is within a small constant of 3·m/p^{2/3}.
func TestLoadShapes(t *testing.T) {
	d := rel.NewDict()
	q := joinQuery(d)
	m, p := 4000, 16
	// Loads depend only on routing; skip the (output-heavy) local join.
	noCompute := func(r mpc.Round, err error) mpc.Round {
		if err != nil {
			t.Fatal(err)
		}
		r.Compute = nil
		return r
	}

	skewed := workload.JoinSkewed(m, 0.5)
	rep := noCompute(RepartitionJoin(q, p, 3))
	grp := noCompute(GroupingJoin(q, p, 3))
	repLoad := runRound(t, p, skewed, rep).MaxLoad()
	grpLoad := runRound(t, p, skewed, grp).MaxLoad()
	// Repartition must carry ≥ the whole heavy block (m tuples across
	// R and S) at one server; grouping stays near 2m/√p.
	if repLoad < m {
		t.Errorf("repartition load %d under 50%% skew; expected ≥ m=%d", repLoad, m)
	}
	if grpLoad >= repLoad/2 {
		t.Errorf("grouping load %d not clearly better than repartition %d", grpLoad, repLoad)
	}
	ideal := 2 * m / int(math.Sqrt(float64(p)))
	if grpLoad > 2*ideal {
		t.Errorf("grouping load %d far above 2m/√p = %d", grpLoad, ideal)
	}

	// Skew-free: repartition ≈ 2m/p.
	free := workload.JoinSkewFree(m)
	repFree := runRound(t, p, free, rep).MaxLoad()
	if repFree > 3*2*m/p {
		t.Errorf("skew-free repartition load %d far above 2m/p = %d", repFree, 2*m/p)
	}

	// HyperCube triangle.
	tri := triangleQuery(d)
	g, err := NewOptimalGrid(tri, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	triInst := workload.TriangleSkewFree(m)
	hcRound := HyperCubeRound(g)
	hcRound.Compute = nil
	hcLoad := runRound(t, g.P(), triInst, hcRound).MaxLoad()
	bound := 3.0 * float64(m) / math.Pow(64, 2.0/3.0)
	if float64(hcLoad) > 2.5*bound {
		t.Errorf("hypercube load %d far above 3m/p^{2/3} = %.0f", hcLoad, bound)
	}
}

func TestAnalyzeBinaryJoinErrors(t *testing.T) {
	d := rel.NewDict()
	if _, err := RepartitionJoin(cq.MustParse(d, "H(x) :- R(x)"), 4, 0); err == nil {
		t.Errorf("single-atom query accepted")
	}
	if _, err := RepartitionJoin(cq.MustParse(d, "H(x, z) :- R(x, y), R(y, z)"), 4, 0); err == nil {
		t.Errorf("self-join accepted by relation-routed join")
	}
	if _, err := GroupingJoin(cq.MustParse(d, "H(x, y) :- R(x), S(y)"), 4, 0); err == nil {
		t.Errorf("cross product accepted")
	}
	if _, err := NewGrid(cq.MustParse(d, "H(x) :- R(x), not S(x)"), nil, 0); err == nil {
		t.Errorf("CQ¬ accepted by grid")
	}
}

func TestOptimalSharesEdgeCases(t *testing.T) {
	d := rel.NewDict()
	q := triangleQuery(d)
	// p = 1: all shares 1.
	shares, _, err := OptimalShares(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range shares {
		if s != 1 {
			t.Errorf("p=1 share of %s = %d", v, s)
		}
	}
	if _, _, err := OptimalShares(q, 0); err == nil {
		t.Errorf("p=0 accepted")
	}
	// Non-perfect-power p: product must stay ≤ p.
	shares, _, err = OptimalShares(q, 50)
	if err != nil {
		t.Fatal(err)
	}
	prod := 1
	for _, s := range shares {
		prod *= s
	}
	if prod > 50 || prod < 27 {
		t.Errorf("p=50 share product %d out of [27,50]", prod)
	}
	// Single-atom query: shares spread over its variables.
	single := cq.MustParse(d, "H(x, y) :- R(x, y)")
	shares, tv, err := OptimalShares(single, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tv < 0.99 {
		t.Errorf("single-atom load exponent %v", tv)
	}
	prod = 1
	for _, s := range shares {
		prod *= s
	}
	if prod > 16 {
		t.Errorf("share product %d > p", prod)
	}
}

func TestGridNullaryAndUnary(t *testing.T) {
	d := rel.NewDict()
	// Unary atoms bind a single dimension.
	q := cq.MustParse(d, "H(x) :- R(x), S(x)")
	g, err := NewGrid(q, map[string]int{"x": 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	fR := rel.NewFact("R", 9)
	fS := rel.NewFact("S", 9)
	tr, ts := g.Targets(fR), g.Targets(fS)
	if len(tr) != 1 || len(ts) != 1 || tr[0] != ts[0] {
		t.Errorf("unary facts with equal values should co-locate: %v vs %v", tr, ts)
	}
	inst := rel.MustInstance(d, "R(1)", "S(1)", "R(2)", "S(3)")
	c := runRound(t, g.P(), inst, HyperCubeRound(g))
	if !c.Output().Equal(cq.Output(q, inst)) {
		t.Errorf("unary hypercube wrong")
	}
}

// Property: for random facts and shares, Targets is deterministic,
// sorted, in range, and consistent with Responsible.
func TestPropGridTargetsWellFormed(t *testing.T) {
	d := rel.NewDict()
	q := triangleQuery(d)
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		shares := map[string]int{
			"x": 1 + r.Intn(4),
			"y": 1 + r.Intn(4),
			"z": 1 + r.Intn(4),
		}
		g, err := NewGrid(q, shares, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 20; k++ {
			f := rel.NewFact([]string{"R", "S", "T"}[r.Intn(3)],
				rel.Value(r.Intn(50)), rel.Value(r.Intn(50)))
			ts := g.Targets(f)
			for i, s := range ts {
				if s < 0 || s >= g.P() {
					t.Fatalf("target %d out of range", s)
				}
				if i > 0 && ts[i-1] >= s {
					t.Fatalf("targets not strictly sorted: %v", ts)
				}
				if !policy.Responsible(g, policy.Node(s), f) {
					t.Fatalf("Responsible disagrees with Targets")
				}
			}
			ts2 := g.Targets(f)
			if len(ts) != len(ts2) {
				t.Fatalf("nondeterministic targets")
			}
		}
	}
}

// Coord converts a server id back to its grid coordinates.
func (g *Grid) Coord(server int) []int {
	out := make([]int, len(g.Shares))
	for i := range g.Shares {
		out[i] = server / g.stride[i] % g.Shares[i]
	}
	return out
}
