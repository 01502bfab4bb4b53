package gym

import (
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// A schedule is one way of feeding an instance to a delta program:
// batch 0 is the base load, the rest are ApplyUpdate batches. Every
// schedule of an instance covers exactly the same fact set, so the
// headline invariant says all of them must converge to the same
// output and the same per-server state as the single-batch run.
type schedule struct {
	name    string
	batches []*rel.Instance
}

func chunkFacts(facts []rel.Fact, k int) []*rel.Instance {
	out := make([]*rel.Instance, k)
	for i := range out {
		out[i] = rel.NewInstance()
	}
	per := (len(facts) + k - 1) / k
	for i, f := range facts {
		out[i/per].Add(f)
	}
	return out
}

func schedulesOf(inst *rel.Instance) []schedule {
	facts := inst.Facts()

	interleaved := make([]*rel.Instance, 4)
	for i := range interleaved {
		interleaved[i] = rel.NewInstance()
	}
	for i, f := range facts {
		interleaved[i%4].Add(f)
	}

	// Redundant: contiguous thirds, but every batch re-adds the whole
	// previous batch, with an empty batch in the middle — duplicates
	// and no-ops must be absorbed silently.
	thirds := chunkFacts(facts, 3)
	redundant := []*rel.Instance{
		thirds[0],
		thirds[0].Union(thirds[1]),
		rel.NewInstance(),
		thirds[1].Union(thirds[2]),
	}

	return []schedule{
		{"three-chunks", chunkFacts(facts, 3)},
		{"interleaved-4", interleaved},
		{"redundant+empty", redundant},
	}
}

// runSchedule feeds the batches of s through prog on a fresh cluster.
func runSchedule(t *testing.T, prog mpc.DeltaProgram, p int, s schedule, opts ...mpc.Option) *mpc.Cluster {
	t.Helper()
	c, err := program{name: s.name, p: p, delta: &prog, batches: s.batches}.run(opts...)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return c
}

func totalFacts(c *mpc.Cluster) int {
	n := 0
	for i := 0; i < c.P(); i++ {
		n += c.Server(i).Len()
	}
	return n
}

// refClosure computes the transitive closure of inst's E relation
// naively — the independent reference the maintained TC must match.
func refClosure(inst *rel.Instance) *rel.Instance {
	tc := rel.NewRelation("TC", 2)
	e := inst.Relation("E")
	if e != nil {
		e.Each(func(t rel.Tuple) bool { tc.Add(t); return true })
		for {
			added := 0
			rel.HashJoin("⋈", tc, e, []int{1}, []int{0}).Each(func(t rel.Tuple) bool {
				if tc.Add(rel.Tuple{t[0], t[3]}) {
					added++
				}
				return true
			})
			if added == 0 {
				break
			}
		}
	}
	out := rel.NewInstance()
	out.SetRelation(tc)
	return out
}

// The headline invariant of the incremental engine: for every program
// and every update schedule, the maintained view equals an independent
// from-scratch evaluation of the final input, and the entire cluster —
// output, per-server resident state, total fact count — is
// byte-identical to the single-batch run. Placement is a pure content
// hash and folds are idempotent, so how the input was batched must be
// unobservable.
func TestDeltaProgramsScheduleInvariant(t *testing.T) {
	d := rel.NewDict()
	joinQ := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z)")
	graph := workload.RandomGraph(24, 40, 7)
	joinInst := workload.JoinSkewFree(40)
	triInst := workload.TriangleSkewFree(30)
	skewInst := workload.TriangleSkewed(60, 0.3)
	heavy := rel.NewValueSet(workload.HeavyHitters(skewInst, "R", 1, 8)...)
	grid, err := hypercube.NewOptimalGrid(TriangleCQ(), 6, 17)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		p     int
		prog  mpc.DeltaProgram
		input *rel.Instance
		view  string
		want  *rel.Instance // reference content of the view relation
	}{
		{"ΔTC", 5, DeltaTCProgram(5, 11), graph, "TC", refClosure(graph)},
		{"Δjoin", 4, DeltaJoinProgram(4, 3), joinInst, "H", cq.Output(joinQ, joinInst)},
		{"Δcascade", 6, DeltaCascadeTriangleProgram(6, 11), triInst, "H", cq.Output(TriangleCQ(), triInst)},
		{"Δskew", 6, DeltaSkewTriangleProgram(6, heavy, 17, grid), skewInst, "H", cq.Output(TriangleCQ(), skewInst)},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			scratch := runSchedule(t, tc.prog, tc.p, schedule{"single-batch", []*rel.Instance{tc.input}})
			view := scratch.Output().Filter(func(f rel.Fact) bool { return f.Rel == tc.view })
			if !view.Equal(tc.want) {
				t.Fatalf("from-scratch %s view disagrees with reference:\n got %s\nwant %s",
					tc.view, view, tc.want)
			}

			wantOut := scratch.Output().String()
			for _, s := range schedulesOf(tc.input) {
				c := runSchedule(t, tc.prog, tc.p, s)
				if got := c.Output().String(); got != wantOut {
					t.Errorf("%s: output diverged from single-batch run:\n got %s\nwant %s", s.name, got, wantOut)
				}
				if totalFacts(c) != totalFacts(scratch) {
					t.Errorf("%s: total resident facts %d, single-batch run has %d", s.name, totalFacts(c), totalFacts(scratch))
				}
				for i := 0; i < tc.p; i++ {
					if !c.Server(i).Equal(scratch.Server(i)) {
						t.Errorf("%s: server %d state diverged from single-batch run", s.name, i)
					}
				}
			}

			// Replaying the same schedule must reproduce the logical
			// trace byte-for-byte (round names, loads, delta comm).
			s := schedulesOf(tc.input)[0]
			a := runSchedule(t, tc.prog, tc.p, s)
			b := runSchedule(t, tc.prog, tc.p, s)
			if a.LogicalTrace() != b.LogicalTrace() {
				t.Errorf("replayed schedule produced a different logical trace")
			}
			if a.DeltaCommTotal() == 0 {
				t.Errorf("delta program shipped no delta facts — DeltaRels accounting is broken")
			}
			if a.DeltaCommTotal() != a.TotalComm() {
				t.Errorf("delta program shipped non-delta facts: delta %d of total %d", a.DeltaCommTotal(), a.TotalComm())
			}
		})
	}
}

// Updates whose consequences are small must cost communication
// proportional to those consequences, not to the resident state: the
// acceptance shape behind the sustained-update benchmarks.
func TestDeltaTCUpdateCostIsDeltaSized(t *testing.T) {
	base := workload.PathGraph(60)
	c := mpc.NewCluster(4)
	if err := c.RunDelta(DeltaTCProgram(4, 11), base); err != nil {
		t.Fatal(err)
	}
	baseComm := c.TotalComm()

	// A fresh edge between two vertices disconnected from the path adds
	// exactly one closure fact, so the update must ship a handful of
	// facts (the ΔE fact plus its candidate) no matter how large the
	// resident closure is.
	if err := c.ApplyUpdate(rel.FromFacts(rel.NewFact("E", 1000, 1001))); err != nil {
		t.Fatal(err)
	}
	upd := c.TotalComm() - baseComm
	if upd > 4 {
		t.Errorf("isolated-edge update shipped %d facts over a %d-fact resident closure", upd, totalFacts(c))
	}

	// Re-adding an existing edge ships the one Δ fact and derives
	// nothing.
	before := c.TotalComm()
	rounds := c.Rounds()
	if err := c.ApplyUpdate(rel.FromFacts(rel.NewFact("E", 3, 4))); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalComm() - before; got != 1 {
		t.Errorf("duplicate-edge update shipped %d facts, want 1", got)
	}
	if got := c.Rounds() - rounds; got != 1 {
		t.Errorf("duplicate-edge update ran %d rounds, want 1", got)
	}
}

// Fault transparency extends to delta programs: under every plan of
// the standard fault matrix, a maintained view's output, logical trace
// (including delta communication), and round count are byte-identical
// to the fault-free run, and recovery shows up only in the recovery
// metrics.
func TestDeltaFaultTransparency(t *testing.T) {
	graph := workload.RandomGraph(20, 32, 9)
	sched := schedule{"thirds", chunkFacts(graph.Facts(), 3)}
	prog := DeltaTCProgram(5, 13)

	free := runSchedule(t, prog, 5, sched)
	wantOut := free.Output().String()
	wantTrace := free.LogicalTrace()

	matrix := mpc.StandardFaultMatrix(2026, free.Rounds(), 5)
	if testing.Short() {
		matrix = matrix[:3]
	}
	var tot mpc.RecoveryStats
	for _, np := range matrix {
		c := runSchedule(t, prog, 5, sched, mpc.WithFaultPlan(np.Plan))
		if got := c.Output().String(); got != wantOut {
			t.Errorf("under %s: output diverged", np.Name)
		}
		if got := c.LogicalTrace(); got != wantTrace {
			t.Errorf("under %s: logical trace diverged:\n got %q\nwant %q", np.Name, got, wantTrace)
		}
		if c.DeltaCommTotal() != free.DeltaCommTotal() || c.Rounds() != free.Rounds() {
			t.Errorf("under %s: delta accounting diverged", np.Name)
		}
		r := c.RecoveryTotals()
		tot.Retries += r.Retries
		tot.RecoveredServers += r.RecoveredServers
		tot.ReplicaComm += r.ReplicaComm
		tot.SpeculativeWins += r.SpeculativeWins
	}
	if !testing.Short() && (tot.Retries == 0 || tot.RecoveredServers == 0) {
		t.Errorf("matrix injected no recoverable faults into the delta program (totals %+v)", tot)
	}
}

// Delta programs must be pure data like every other program builder:
// the same parameters yield the same round names, which is what
// RestoreDelta's re-entry relies on.
func TestDeltaProgramsAreReproducible(t *testing.T) {
	progs := []func() mpc.DeltaProgram{
		func() mpc.DeltaProgram { return DeltaTCProgram(6, 42) },
		func() mpc.DeltaProgram { return DeltaJoinProgram(6, 42) },
		func() mpc.DeltaProgram { return DeltaCascadeTriangleProgram(6, 42) },
	}
	for _, mk := range progs {
		a, b := mk(), mk()
		for batch := 0; batch < 3; batch++ {
			ra, rb := a.Inject(batch), b.Inject(batch)
			if len(ra) != len(rb) {
				t.Fatalf("%s: Inject(%d) length differs", a.Name, batch)
			}
			for i := range ra {
				if ra[i].Name != rb[i].Name {
					t.Errorf("%s: Inject(%d)[%d] names differ: %q vs %q", a.Name, batch, i, ra[i].Name, rb[i].Name)
				}
			}
		}
		if a.Step != nil {
			for k := 0; k < 3; k++ {
				if a.Step(k).Name != b.Step(k).Name {
					t.Errorf("%s: Step(%d) names differ", a.Name, k)
				}
			}
		}
	}
}
