package experiments

import (
	"mpclogic/internal/datalog"
	"mpclogic/internal/mono"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
	"mpclogic/internal/transducer"
	"mpclogic/internal/workload"
)

// Experiments for the asynchronous half (Section 5): CALM, the
// monotonicity hierarchy of Figure 2, and the coordination-free
// strategies of Theorems 5.3/5.8/5.12.

func init() {
	register(Def{
		ID:    "F2-hierarchy",
		Name:  "F2",
		Title: "Figure 2: M ⊊ Mdistinct ⊊ Mdisjoint with Datalog correspondences",
		Claim: "triangles ∈ M; open-triangle ∈ Mdistinct∖M; ¬TC ∈ Mdisjoint∖Mdistinct; QNT ∉ Mdisjoint; Datalog(≠)⊆M, SP-Datalog⊆Mdistinct, semicon-Datalog⊆Mdisjoint",
		Cells: []Cell{
			{Params: "semantic-classes", Run: cellFigure2Classes},
			{Params: "datalog-fragments", Run: cellFigure2Datalog},
		},
	})
	register(Def{
		ID:    "CALM-theorem",
		Name:  "CALM",
		Title: "CALM theorem (Theorem 5.3): F0 = A0 = M",
		Claim: "monotone queries run coordination-free by naive broadcast; non-monotone ones cannot",
		Cells: []Cell{{Params: "broadcast-vs-coordinated", Run: cellCALM}},
	})
	register(Def{
		ID:    "T58-policy-aware",
		Name:  "T58",
		Title: "Theorem 5.8: F1 = A1 = Mdistinct (policy-aware, Example 5.4)",
		Claim: "with a queryable distribution policy, open-triangle runs correctly on every schedule and coordination-free on the ideal distribution",
		Cells: []Cell{{Params: "open-triangle", Run: cellTheorem58}},
	})
	register(Def{
		ID:    "T512-domain-guided",
		Name:  "T512",
		Title: "Theorem 5.12: F2 = A2 = Mdisjoint (domain-guided)",
		Claim: "¬TC (outside Mdistinct) runs correctly on domain-guided networks, coordination-free on the ideal distribution",
		Cells: []Cell{{Params: "ntc", Run: cellTheorem512}},
	})
	register(Def{
		ID:    "WM-win-move",
		Name:  "WM",
		Title: "win-move is coordination-free on domain-guided networks",
		Claim: "semi-connected programs under well-founded semantics stay domain-disjoint-monotone; win-move distributes over components",
		Cells: []Cell{{Params: "two-components", Run: cellWinMove}},
	})
	register(Def{
		ID:    "BCAST-economical",
		Name:  "BCAST",
		Title: "economical broadcasting (Ketsman-Neven, Section 6)",
		Claim: "transmitting only the facts that can join reduces communication without changing the answer",
		Cells: []Cell{{Params: "naive-vs-economical", Run: cellBroadcast}},
	})
}

func schemaE() rel.Schema { return rel.Schema{"E": 2} }

func universe3() []rel.Value { return []rel.Value{0, 1, 2} }

// Figure 2, semantic half: the hierarchy M ⊊ Mdistinct ⊊ Mdisjoint
// with verified witnesses.
func cellFigure2Classes() (*Result, error) {
	res := newResult()
	queries := []struct {
		name string
		q    mono.Query
		uni  []rel.Value
		want [3]bool // M, Mdistinct, Mdisjoint
	}{
		{"triangles", witness(mono.M), universe3(), [3]bool{true, true, true}},
		{"open-triangle", witness(mono.Mdistinct), universe3(), [3]bool{false, true, true}},
		{"¬TC", witness(mono.Mdisjoint), universe3(), [3]bool{false, false, true}},
		{"QNT", qntQuery, []rel.Value{0, 1, 2, 3}, [3]bool{false, false, false}},
	}
	res.rowf("%-14s %-6s %-11s %-11s", "query", "M", "Mdistinct", "Mdisjoint")
	for _, c := range queries {
		m, err := mono.IsMonotone(c.q, schemaE(), c.uni)
		if err != nil {
			return nil, err
		}
		dd, err := mono.IsDomainDistinctMonotone(c.q, schemaE(), c.uni)
		if err != nil {
			return nil, err
		}
		dj, err := mono.IsDomainDisjointMonotone(c.q, schemaE(), c.uni)
		if err != nil {
			return nil, err
		}
		res.rowf("%-14s %-6v %-11v %-11v", c.name, m.Holds, dd.Holds, dj.Holds)
		if m.Holds != c.want[0] || dd.Holds != c.want[1] || dj.Holds != c.want[2] {
			res.Pass = false
		}
	}
	return res, nil
}

// Figure 2, syntactic half: the Datalog fragments' placement.
func cellFigure2Datalog() (*Result, error) {
	res := newResult()
	d := rel.NewDict()
	progs := []struct {
		name, src string
		want      mono.Class
	}{
		{"Datalog(≠) TC", "TC(x, y) :- E(x, y)\nTC(x, y) :- TC(x, z), E(z, y)", "M"},
		{"SP open-triangle", "H(x, y, z) :- E(x, y), E(y, z), not E(z, x)", "Mdistinct"},
		{"semicon ¬TC", "TC(x, y) :- E(x, y)\nTC(x, y) :- TC(x, z), TC(z, y)\nOUT(x, y) :- ADom(x), ADom(y), not TC(x, y)", "Mdisjoint"},
		{"QNT program", "T(x, y, z) :- E(x, y), E(y, z), E(z, x), y != x, y != z, x != z\nS(x) :- ADom(x), T(u, v, w)\nOUT(x, y) :- E(x, y), not S(x)", ""},
	}
	for _, c := range progs {
		p := datalog.MustParse(d, c.src)
		got := datalog.Classify(p).MonotonicityClass()
		res.rowf("program %-18s → %q", c.name, string(got))
		if got != c.want {
			res.Pass = false
		}
	}
	return res, nil
}

// CALM theorem (Theorem 5.3): the monotone strategy is
// coordination-free; the naive strategy is unsound for non-monotone
// queries; the coordinated one needs to read messages even on the
// ideal distribution.
func cellCALM() (*Result, error) {
	res := newResult()
	d := rel.NewDict()
	rowM, fallback := transducer.StrategyFor(mono.M), transducer.StrategyFor(mono.None)
	tri, open := rowM.Witness, witness(mono.Mdistinct)

	g := workload.RandomGraph(10, 25, 5)
	// Monotone: silent run on ideal distribution computes Q.
	n, err := transducer.Load(rowM.Program(tri, nil), rowM.Ideal(4), g, transducer.WithSeed(1))
	if err != nil {
		return nil, err
	}
	st := n.RunSilent()
	okSilent := n.Output().Equal(tri(g)) && st.Delivered == 0
	res.rowf("monotone broadcast, silent ideal run: correct=%v delivered=%d", okSilent, st.Delivered)
	if !okSilent {
		res.Pass = false
	}
	// Non-monotone with naive broadcast — row M's program on the query
	// of the row below, a deliberate mismatch: some schedule is unsound.
	closed := rel.MustInstance(d, "E(0,1)", "E(1,2)", "E(2,0)")
	unsound := false
	for seed := int64(0); seed < 20 && !unsound; seed++ {
		nn := transducer.New(3, rowM.Program(open, nil), transducer.WithSeed(seed))
		parts := []*rel.Instance{
			rel.MustInstance(d, "E(0,1)"),
			rel.MustInstance(d, "E(1,2)"),
			rel.MustInstance(d, "E(2,0)"),
		}
		if err := nn.LoadParts(parts); err != nil {
			return nil, err
		}
		if _, err := nn.Run(); err != nil {
			return nil, err
		}
		if !nn.Output().SubsetOf(open(closed)) {
			unsound = true
		}
	}
	res.rowf("naive broadcast on open-triangle: unsound schedule found=%v", unsound)
	if !unsound {
		res.Pass = false
	}
	// Coordinated: correct on all schedules, but blocked when silent.
	// Use a graph with a nonempty open-triangle answer so "no output"
	// is distinguishable from "done".
	openGraph := rel.MustInstance(d, "E(5,6)", "E(6,7)")
	nc, err := transducer.Load(fallback.Program(open, nil), fallback.Ideal(3), openGraph, transducer.WithSeed(2))
	if err != nil {
		return nil, err
	}
	nc.RunSilent()
	blocked := !nc.Output().Equal(open(openGraph))
	res.rowf("coordinated protocol, silent ideal run blocked=%v (needs message reads)", blocked)
	if !blocked {
		res.Pass = false
	}
	return res, nil
}

// fiveSchedules runs mk on g under pol with scheduler seeds 0–4 and
// reports whether every run output want, and the last run's Sent.
func fiveSchedules(mk func() transducer.Program, pol policy.Policy, g, want *rel.Instance) (allOK bool, sent int, err error) {
	allOK = true
	for seed := int64(0); seed < 5; seed++ {
		n, err := transducer.Load(mk, pol, g, transducer.WithSeed(seed))
		if err != nil {
			return false, 0, err
		}
		st, err := n.Run()
		if err != nil {
			return false, 0, err
		}
		sent = st.Sent
		if !n.Output().Equal(want) {
			allOK = false
		}
	}
	return allOK, sent, nil
}

// silentIdeal is the coordination-freeness probe: on the ideal
// distribution mk outputs want without reading a message.
func silentIdeal(mk func() transducer.Program, ideal policy.Policy, g, want *rel.Instance, seed int64) (bool, error) {
	n, err := transducer.Load(mk, ideal, g, transducer.WithSeed(seed))
	if err != nil {
		return false, err
	}
	st := n.RunSilent()
	return n.Output().Equal(want) && st.Delivered == 0, nil
}

// Theorem 5.8: policy-aware networks compute Mdistinct queries
// coordination-free (Example 5.4's open-triangle program, the paper's
// verbatim one for the row's witness).
func cellTheorem58() (*Result, error) {
	res := newResult()
	row := transducer.StrategyFor(mono.Mdistinct)
	mk := transducer.OpenTriangle().Factory()
	g := workload.RandomGraph(9, 20, 11)
	want := row.Witness(g)
	const p = 4
	allOK, _, err := fiveSchedules(mk, row.Policy(p), g, want)
	if err != nil {
		return nil, err
	}
	res.rowf("open-triangle over hash policy, 5 schedules: all correct=%v (|Q(I)|=%d)", allOK, want.Len())
	silentOK, err := silentIdeal(mk, row.Ideal(p), g, want, 1)
	if err != nil {
		return nil, err
	}
	res.rowf("silent ideal run: correct=%v", silentOK)
	res.Pass = allOK && silentOK
	return res, nil
}

// Theorem 5.12: domain-guided networks compute Mdisjoint queries
// (¬TC) coordination-free.
func cellTheorem512() (*Result, error) {
	res := newResult()
	row := transducer.StrategyFor(mono.Mdisjoint)
	mk := row.Program(row.Witness, nil)
	g := workload.ComponentsGraph(3, 3)
	want := row.Witness(g)
	const p = 4
	allOK, sent, err := fiveSchedules(mk, row.Policy(p), g, want)
	if err != nil {
		return nil, err
	}
	res.rowf("¬TC over domain-guided policy, 5 schedules: all correct=%v (|Q(I)|=%d, ~%d msgs/run)", allOK, want.Len(), sent)
	silentOK, err := silentIdeal(mk, row.Ideal(p), g, want, 2)
	if err != nil {
		return nil, err
	}
	res.rowf("silent ideal run: correct=%v", silentOK)
	res.Pass = allOK && silentOK
	return res, nil
}

// Win-move under well-founded semantics runs on domain-guided networks
// (Zinn-Green-Ludäscher via Section 5.3).
func cellWinMove() (*Result, error) {
	res := newResult()
	d := rel.NewDict()
	prog := datalog.WinMoveProgram(d)
	winQ := func(i *rel.Instance) *rel.Instance {
		// The transducer state stores Move facts; evaluate WF win-move.
		r, err := datalog.WellFounded(prog, i)
		if err != nil {
			return rel.NewInstance()
		}
		return r.True
	}
	// Game over two disjoint components.
	moves := rel.MustInstance(d,
		"Move(0,1)", "Move(1,2)", // chain: 1 won, 0 and 2 lost
		"Move(10,11)", "Move(11,12)", "Move(12,13)", // longer chain
	)
	want := winQ(moves)
	row := transducer.StrategyFor(mono.Mdisjoint)
	allOK, _, err := fiveSchedules(row.Program(winQ, nil), row.Policy(3), moves, want)
	if err != nil {
		return nil, err
	}
	res.rowf("win-move over domain-guided network, 5 schedules: all correct=%v (|Win|=%d)", allOK, want.Len())
	// Win-move distributes over components (bounded check).
	distOK, _ := mono.DistributesOverComponents(winQ, rel.Schema{"Move": 2}, universe3())
	res.rowf("distributes over components (bounded check): %v", distOK)
	res.Pass = allOK && distOK
	return res, nil
}

// Ketsman-Neven economical broadcasting: ship only query-relevant
// facts.
func cellBroadcast() (*Result, error) {
	res := newResult()
	row := transducer.StrategyFor(mono.M)
	tri := row.Witness
	g := workload.RandomGraph(10, 24, 13)
	ballast := workload.Zipf("Noise", 300, 50, 1.2, 1)
	full := g.Union(ballast)
	want := tri(full)
	run := func(mk func() transducer.Program) (transducer.Stats, bool, error) {
		n, err := transducer.Load(mk, row.Policy(3), full, transducer.WithSeed(4))
		if err != nil {
			return transducer.Stats{}, false, err
		}
		st, err := n.Run()
		if err != nil {
			return transducer.Stats{}, false, err
		}
		return st, n.Output().Equal(want), nil
	}
	stN, okN, err := run(row.Program(tri, nil))
	if err != nil {
		return nil, err
	}
	stE, okE, err := run(transducer.EconomicalBroadcast(tri, func(f rel.Fact) bool { return f.Rel == "E" }).Factory())
	if err != nil {
		return nil, err
	}
	res.rowf("naive broadcast:      sent=%d correct=%v", stN.Sent, okN)
	res.rowf("economical broadcast: sent=%d correct=%v", stE.Sent, okE)
	res.Pass = okN && okE && stE.Sent < stN.Sent
	return res, nil
}

// witness is the separating query of a class's row in the CALM table.
func witness(c mono.Class) transducer.Query { return transducer.StrategyFor(c).Witness }

// qntQuery returns E when the graph has no 3-node triangle, else ∅.
func qntQuery(i *rel.Instance) *rel.Instance {
	e := i.Relation("E")
	out := rel.NewInstance()
	if e == nil {
		return out
	}
	hasTri := false
	e.Each(func(t1 rel.Tuple) bool {
		e.Each(func(t2 rel.Tuple) bool {
			if t1[1] != t2[0] {
				return true
			}
			if e.Contains(rel.Tuple{t2[1], t1[0]}) &&
				t1[0] != t1[1] && t2[0] != t2[1] && t2[1] != t1[0] {
				hasTri = true
				return false
			}
			return true
		})
		return !hasTri
	})
	if hasTri {
		return out
	}
	e.Each(func(t rel.Tuple) bool {
		out.Add(rel.Fact{Rel: "E", Tuple: t})
		return true
	})
	return out
}
