package gym

import (
	"fmt"
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

// DeltaJoinProgram maintains H(x,y,z) = R(x,y) ⋈ S(y,z) under
// insertions into R and S: both sides are resident at the same hash of
// the join value y, so one inject round per batch ships only the Δ
// fragments and derives ΔH = newR ⋈ S ∪ R ⋈ newS locally (the folds
// run first, so the full sides already include the batch's own new
// facts; the double-derived newR ⋈ newS collapses in the H set). The
// view is non-recursive: no Step, no Frontier.
func DeltaJoinProgram(p int, seed uint64) mpc.DeltaProgram {
	dR, dS := mpc.DeltaName("R"), mpc.DeltaName("S")
	route := mpc.ByRelation(map[string]mpc.Router{
		dR: mpc.HashOn(p, []int{1}, seed),
		dS: mpc.HashOn(p, []int{0}, seed),
	})
	return mpc.DeltaProgram{
		Name: "Δjoin",
		Inject: func(batch int) []mpc.Round {
			return []mpc.Round{{
				Name:      fmt.Sprintf("Δjoin inject %d", batch),
				Resident:  []string{"R", "S", "H"},
				DeltaRels: []string{dR, dS},
				Route:     route,
				Compute: func(_ int, local *rel.Instance) *rel.Instance {
					newR := local.FoldDelta(dR, "R", 2)
					newS := local.FoldDelta(dS, "S", 2)
					if newR.Len() == 0 && newS.Len() == 0 {
						return local
					}
					h := local.EnsureRelation("H", 3)
					indexOn(local.Relation("S"), 0)
					indexOn(local.Relation("R"), 1)
					addJoin(h, newR, local.Relation("S"), []int{1}, []int{0}, []int{0, 1, 3})
					addJoin(h, local.Relation("R"), newS, []int{1}, []int{0}, []int{0, 1, 3})
					return local
				},
			}}
		},
	}
}

// DeltaSkewTriangleProgram maintains the triangle view under
// insertions with the heavy-hitter discipline of SkewTriangleProgram:
// light y-values live in HyperCube grid cells and are finished by
// local evaluation; for heavy y-values the residual acyclic query is
// processed by two semijoin-shaped hops (W = heavy-R ⋈ T at h(a),
// then H += W ⋈ heavy-S at h(c)).
//
// Every role shares one resident relation per name: a server's R holds
// whatever grid copies and heavy hash copies land there. Extra copies
// are genuine facts, so joins over them derive only valid (and
// deduplicated) tuples; the light evaluation filters heavy-y rows and
// the heavy joins select heavy-y rows, so the two paths partition the
// output exactly as in the one-shot algorithm. Placement is a pure
// content hash, so the final per-server state is batch-schedule
// invariant here too.
//
// The light path re-evaluates the triangle query inside each grid cell
// a delta lands in (bounded by cell size, not by |Δ|) — the cascade
// program is the one with per-update cost proportional to the deltas;
// this program exists to keep skew handling under maintenance too.
func DeltaSkewTriangleProgram(p int, heavy rel.ValueSet, seed uint64, grid mpc.Router) mpc.DeltaProgram {
	q := TriangleCQ()
	dR, dS, dT := mpc.DeltaName("R"), mpc.DeltaName("S"), mpc.DeltaName("T")

	hashA := mpc.HashOn(p, []int{1}, seed^0x1234)  // T(c,a) by a
	hashRA := mpc.HashOn(p, []int{0}, seed^0x1234) // R(a,b) by a
	hashC := mpc.HashOn(p, []int{2}, seed^0x9999)  // W(a,b,c) by c
	hashSC := mpc.HashOn(p, []int{1}, seed^0x9999) // S(b,c) by c

	// The grid router dispatches on the relation name, so Δ facts are
	// routed as their full counterparts.
	gridAs := func(name string, f rel.Fact) []int {
		return grid.Route(rel.Fact{Rel: name, Tuple: f.Tuple})
	}

	route1 := mpc.RouterFunc(func(f rel.Fact) []int {
		switch f.Rel {
		case dR:
			if heavy.Contains(f.Tuple[1]) {
				return hashRA.Route(f)
			}
			return gridAs("R", f)
		case dS:
			if heavy.Contains(f.Tuple[0]) {
				return hashSC.Route(f) // straight to its round-2 home
			}
			return gridAs("S", f)
		case dT:
			// T serves both the light grid and the heavy path.
			return append(gridAs("T", f), hashA.Route(f)...)
		}
		return nil
	})
	route2 := mpc.ByRelation(map[string]mpc.Router{"ΔW": hashC})

	residents := []string{"R", "S", "T", "W", "H"}
	isHeavyY := func(t rel.Tuple) bool { return heavy.Contains(t[1]) }

	return mpc.DeltaProgram{
		Name: "Δskew",
		Inject: func(batch int) []mpc.Round {
			round1 := mpc.Round{
				Name:      fmt.Sprintf("Δskew %d.1 grid + ΔW", batch),
				Resident:  residents,
				DeltaRels: []string{dR, dS, dT},
				Route:     route1,
				Compute: func(_ int, local *rel.Instance) *rel.Instance {
					newR := local.FoldDelta(dR, "R", 2)
					newT := local.FoldDelta(dT, "T", 2)

					// Split ΔS: light facts fold into the resident grid
					// copies now; heavy facts wait (zero-copy) for round 2.
					var newSLight *rel.Relation
					if ds := local.RemoveRelation(dS); ds != nil && ds.Len() > 0 {
						light := rel.Select(ds, func(t rel.Tuple) bool { return !heavy.Contains(t[0]) })
						hw := rel.Select(ds, func(t rel.Tuple) bool { return heavy.Contains(t[0]) })
						if light.Len() > 0 {
							newSLight = local.EnsureRelationSize("S", 2, light.Len()).AbsorbNew(light, dS)
						}
						if hw.Len() > 0 {
							hw.Name = "ΔSh"
							local.SetRelation(hw)
						}
					}

					// Light path: a new fact completes triangles only in
					// its own cell, so re-evaluate the query there.
					if newR.Len() > 0 || newT.Len() > 0 || (newSLight != nil && newSLight.Len() > 0) {
						h := local.EnsureRelation("H", 3)
						cq.Evaluate(q, local).Each(func(t rel.Tuple) bool {
							if !isHeavyY(t) {
								h.Add(t)
							}
							return true
						})
					}

					// Heavy path: ΔW(a,b,c) for heavy R(a,b) and T(c,a).
					heavyNewR := rel.Select(newR, isHeavyY)
					var heavyR *rel.Relation
					if r := local.Relation("R"); r != nil {
						heavyR = rel.Select(r, isHeavyY)
					}
					if heavyNewR.Len() > 0 || (heavyR != nil && heavyR.Len() > 0 && newT.Len() > 0) {
						w := rel.NewRelation("ΔW", 3)
						indexOn(local.Relation("T"), 1)
						addJoin(w, heavyNewR, local.Relation("T"), []int{0}, []int{1}, []int{0, 1, 2})
						addJoin(w, heavyR, newT, []int{0}, []int{1}, []int{0, 1, 2})
						if w.Len() > 0 {
							local.SetRelation(w)
						}
					}
					return local
				},
			}
			round2 := mpc.Round{
				Name:      fmt.Sprintf("Δskew %d.2 ΔW⋈S", batch),
				Resident:  append(append([]string(nil), residents...), "ΔSh"),
				DeltaRels: []string{"ΔW"},
				Route:     route2,
				Compute: func(_ int, local *rel.Instance) *rel.Instance {
					newSh := local.FoldDelta("ΔSh", "S", 2)
					newW := local.FoldDelta("ΔW", "W", 3)
					if newSh.Len() == 0 && newW.Len() == 0 {
						return local
					}
					h := local.EnsureRelation("H", 3)
					// Match W(a,b,c) with S(b,c) on (b, c); W's b is
					// always heavy, so light grid copies of S here never
					// join — the full-S join self-filters to the heavy side.
					indexOn(local.Relation("S"), 0, 1)
					indexOn(local.Relation("W"), 1, 2)
					addJoin(h, newW, local.Relation("S"), []int{1, 2}, []int{0, 1}, []int{0, 1, 2})
					addJoin(h, local.Relation("W"), newSh, []int{1, 2}, []int{0, 1}, []int{0, 1, 2})
					return local
				},
			}
			return []mpc.Round{round1, round2}
		},
	}
}
