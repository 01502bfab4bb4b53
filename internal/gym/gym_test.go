package gym

import (
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

func TestYannakakisMatchesDirect(t *testing.T) {
	d := rel.NewDict()
	queries := []string{
		"H(a, dd) :- R0(a, b), R1(b, c), R2(c, dd)",
		"H(a) :- R0(a, b), R1(b, c)",
		"H(b) :- R0(a, b)",
	}
	inst, _ := workload.AcyclicChain(3, 120, 0.3, 5)
	for _, src := range queries {
		q := cq.MustParse(d, src)
		want := cq.Evaluate(q, inst)
		got, st, err := Yannakakis(q, inst)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: yannakakis %d facts, direct %d", src, got.Len(), want.Len())
		}
		if st.Semijoins == 0 && len(q.Body) > 1 {
			t.Errorf("%s: no semijoins recorded", src)
		}
	}
}

func TestYannakakisRejectsCyclic(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	if _, _, err := Yannakakis(q, rel.NewInstance()); err == nil {
		t.Errorf("cyclic query accepted by Yannakakis")
	}
}

// The headline property: on a dangling-heavy workload, Yannakakis'
// intermediates stay at output scale while the cascade blows up.
func TestYannakakisIntermediatesBounded(t *testing.T) {
	d := rel.NewDict()
	// Hub-shaped data: R0 fans into a hub, R1 fans out of it, and R2
	// keeps only a few endpoints. The cascade materializes the full
	// R0⋈R1 fan product (100×100); Yannakakis' semijoins kill the
	// dangling fan-out before joining.
	q := cq.MustParse(d, "H(a, dd) :- R0(a, b), R1(b, c), R2(c, dd)")
	inst := rel.NewInstance()
	hub := rel.Value(100000)
	for i := 0; i < 100; i++ {
		inst.Add(rel.NewFact("R0", rel.Value(i), hub))
		inst.Add(rel.NewFact("R1", hub, rel.Value(1000+i)))
	}
	for j := 0; j < 5; j++ {
		inst.Add(rel.NewFact("R2", rel.Value(1000+j), rel.Value(2000+j)))
	}
	outY, stY, err := Yannakakis(q, inst)
	if err != nil {
		t.Fatal(err)
	}
	outC, stC, err := CascadeJoin(q, inst)
	if err != nil {
		t.Fatal(err)
	}
	if !outY.Equal(outC) {
		t.Fatalf("cascade and yannakakis disagree")
	}
	if stY.MaxIntermediate > 2*outY.Len()+1 {
		t.Errorf("yannakakis intermediate %d exceeds ~output %d", stY.MaxIntermediate, outY.Len())
	}
	if stC.MaxIntermediate <= stY.MaxIntermediate {
		t.Errorf("cascade intermediate %d not larger than yannakakis %d on dangling data",
			stC.MaxIntermediate, stY.MaxIntermediate)
	}
}

func TestDecomposeAcyclicTrivial(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(a, c) :- R0(a, b), R1(b, c)")
	dec, err := Decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Bags) != 2 || dec.Width() != 1 {
		t.Errorf("acyclic decomposition bags = %v", dec.Bags)
	}
}

func TestDecomposeTriangle(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	dec, err := Decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Bags) != 2 {
		t.Fatalf("triangle bags = %v, want 2", dec.Bags)
	}
	if dec.Width() != 2 {
		t.Errorf("width = %d, want 2", dec.Width())
	}
	if err := dec.Tree.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDistributedYannakakis(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(a, dd) :- R0(a, b), R1(b, c), R2(c, dd)")
	inst, _ := workload.AcyclicChain(3, 150, 0.4, 2)
	want := cq.Output(q, inst)
	prog, err := YannakakisProgram(q, 8, 42)
	c := simulate(t, prog, err, 8, inst)
	if got := c.Output(); !got.Equal(want) {
		t.Errorf("distributed yannakakis wrong: %d vs %d facts", got.Len(), want.Len())
	}
	// 1 materialize + 2 semijoin↑ + 2 semijoin↓ + 2 join + 1 project.
	if c.Rounds() != 8 {
		t.Errorf("rounds = %d, want 8", c.Rounds())
	}
}

func TestDistributedYannakakisDisconnected(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y) :- A(x), B(y)")
	inst := rel.MustInstance(d, "A(p)", "A(q)", "B(r)")
	want := cq.Output(q, inst)
	prog, err := YannakakisProgram(q, 4, 1)
	if got := simulate(t, prog, err, 4, inst).Output(); !got.Equal(want) {
		t.Errorf("cross product wrong: got %v want %v", got.StringWith(d), want.StringWith(d))
	}
}

func TestDistributedYannakakisEmptyInput(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(a, c) :- R0(a, b), R1(b, c)")
	prog, err := YannakakisProgram(q, 4, 1)
	if got := simulate(t, prog, err, 4, rel.NewInstance()).Output(); got.Len() != 0 {
		t.Errorf("empty input gave %d facts", got.Len())
	}
}

func TestGYMTriangle(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	inst := workload.TriangleSkewFree(80)
	inst.Add(rel.NewFact("R", 1, 2)) // noise
	want := cq.Output(q, inst)
	dec, err := Decompose(q)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := GYMProgram(q, 16, 3)
	c := simulate(t, prog, err, 16, inst)
	if got := c.Output(); !got.Equal(want) {
		t.Errorf("GYM triangle wrong: %d vs %d facts", got.Len(), want.Len())
	}
	if len(dec.Bags) != 2 {
		t.Errorf("unexpected decomposition: %v", dec.Bags)
	}
	if c.Rounds() < 4 {
		t.Errorf("suspiciously few rounds: %d", c.Rounds())
	}
}

func TestGYMAcyclicEqualsYannakakis(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(a, c) :- R0(a, b), R1(b, c)")
	inst, _ := workload.AcyclicChain(2, 100, 0.2, 4)
	want := cq.Output(q, inst)
	prog, err := GYMProgram(q, 8, 5)
	if got := simulate(t, prog, err, 8, inst).Output(); !got.Equal(want) {
		t.Errorf("GYM on acyclic query wrong")
	}
}

func TestCascadeTriangle(t *testing.T) {
	inst := workload.TriangleSkewFree(60)
	inst.Add(rel.NewFact("R", 5, 6))
	inst.Add(rel.NewFact("S", 6, 7))
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	want := cq.Output(q, inst)
	c := simulate(t, CascadeTriangleProgram(8, 11), nil, 8, inst)
	if !c.Output().Filter(func(f rel.Fact) bool { return f.Rel == "H" }).Equal(want) {
		t.Errorf("cascade triangle wrong")
	}
	if c.Rounds() != 2 {
		t.Errorf("rounds = %d, want 2", c.Rounds())
	}
}

func TestSkewTriangleTwoRound(t *testing.T) {
	m := 300
	inst := workload.TriangleSkewed(m, 0.3)
	heavy := rel.NewValueSet(workload.HeavyHitters(inst, "R", 1, m/10)...)
	if len(heavy) == 0 {
		t.Fatal("no heavy hitters in workload")
	}
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	want := cq.Output(q, inst)
	grid, err := hypercube.NewOptimalGrid(q, 27, 17)
	if err != nil {
		t.Fatal(err)
	}
	c := simulate(t, SkewTriangleProgram(27, heavy, 17, grid), nil, 27, inst)
	if got := c.Output(); !got.Equal(want) {
		t.Errorf("skew 2-round triangle wrong: got %d want %d facts", got.Len(), want.Len())
	}
	if c.Rounds() != 2 {
		t.Errorf("rounds = %d, want 2", c.Rounds())
	}
}

// Load comparison: under heavy skew the 2-round algorithm's max load
// beats the best 1-round algorithm's (which is stuck at ~m/√p).
func TestSkewTriangleLoadBeatsOneRound(t *testing.T) {
	m, p := 20000, 64
	inst := workload.TriangleSkewed(m, 0.5)
	heavy := rel.NewValueSet(workload.HeavyHitters(inst, "R", 1, m/16)...)
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")

	grid, err := hypercube.NewOptimalGrid(q, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	c2 := simulate(t, SkewTriangleProgram(p, heavy, 3, grid), nil, p, inst)

	// One-round HyperCube on the skewed instance: the heavy value
	// pins an entire grid hyperplane.
	shuffle := hypercube.HyperCubeRound(grid)
	shuffle.Compute = nil
	c1 := simulate(t, []mpc.Round{shuffle}, nil, p, inst)
	if c2.MaxLoad() >= c1.MaxLoad() {
		t.Errorf("2-round load %d not below 1-round hypercube load %d under skew", c2.MaxLoad(), c1.MaxLoad())
	}
}

// simulate runs a built program on the one executor, fatal on the
// builder's error or the run's.
func simulate(t *testing.T, rounds []mpc.Round, buildErr error, p int, inst *rel.Instance) *mpc.Cluster {
	t.Helper()
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	c, err := mpc.Simulate(rounds, p, inst)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Regression: a bag whose atoms constrain a relation with constants
// must not destroy the facts of that relation that other bags still
// need — the grid routes non-matching facts nowhere, so the round has
// to keep them local instead of dropping them.
func TestGYMKeepsFactsUnroutedByBagGrid(t *testing.T) {
	d := rel.NewDict()
	// R(7,x) forms its own bag (processed first); the 2-cycle
	// {R(x,y), R(y,x)} forms the merged bag (processed last). R-facts
	// not matching R(7,·) must survive the first bag's round.
	q := cq.MustParse(d, "H(x, y) :- R(7, x), R(x, y), R(y, x)")
	// Numeric constants in the query are raw values, so build facts
	// with raw values too (MustInstance would intern "7" as a name).
	inst := rel.FromFacts(
		rel.NewFact("R", 7, 1),
		rel.NewFact("R", 1, 2),
		rel.NewFact("R", 2, 1),
	)
	want := cq.Output(q, inst)
	if want.Len() != 1 {
		t.Fatalf("test setup: want = %v", want.StringWith(d))
	}
	prog, err := GYMProgram(q, 4, 3)
	if got := simulate(t, prog, err, 4, inst).Output(); !got.Equal(want) {
		t.Fatalf("GYM lost constant-filtered facts: got %v want %v",
			got.StringWith(d), want.StringWith(d))
	}
}
