package datalog

import (
	"sort"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/mono"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

func TestEvalTransitiveClosure(t *testing.T) {
	d := rel.NewDict()
	p := MustParse(d, `
TC(x, y) :- E(x, y)
TC(x, y) :- TC(x, z), TC(z, y)
`)
	g := workload.PathGraph(10)
	out, err := EvalQuery(p, g, "TC")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 55 {
		t.Errorf("TC of 10-path = %d pairs, want 55", out.Len())
	}
	// Linear variant computes the same closure.
	p2 := MustParse(d, `
TC(x, y) :- E(x, y)
TC(x, y) :- TC(x, z), E(z, y)
`)
	out2, err := EvalQuery(p2, g, "TC")
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(out2) {
		t.Errorf("linear and nonlinear TC disagree")
	}
}

func TestEvalAgainstNaive(t *testing.T) {
	d := rel.NewDict()
	p := MustParse(d, `
TC(x, y) :- E(x, y)
TC(x, y) :- TC(x, z), E(z, y)
`)
	for seed := int64(0); seed < 5; seed++ {
		g := workload.RandomGraph(12, 20, seed)
		out, err := EvalQuery(p, g, "TC")
		if err != nil {
			t.Fatal(err)
		}
		// Naive reference: iterate rules on full db until fixpoint.
		want := naiveEval(t, p, g, "TC")
		if !out.Equal(want) {
			t.Fatalf("seed %d: semi-naive %d vs naive %d facts", seed, out.Len(), want.Len())
		}
	}
}

func naiveEval(t *testing.T, p *Program, edb *rel.Instance, outRel string) *rel.Instance {
	t.Helper()
	db := edb.Clone()
	if p.UsesADom() {
		populateADom(db)
	}
	st, err := Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < st.Count; s++ {
		for {
			grew := false
			for _, ri := range st.RulesByStratum[s] {
				r := p.Rules[ri]
				res := evalRuleOn(r, db)
				res.Each(func(f rel.Fact) bool {
					if db.Add(f) {
						grew = true
					}
					return true
				})
			}
			if !grew {
				break
			}
		}
	}
	out := rel.NewInstance()
	if r := db.Relation(outRel); r != nil {
		out.SetRelation(r.Clone())
	}
	return out
}

func evalRuleOn(r *Rule, db *rel.Instance) *rel.Instance {
	out := rel.NewInstance()
	res := evalCQ(r, db)
	res.Each(func(f rel.Fact) bool {
		out.Add(f)
		return true
	})
	return out
}

func TestStratifiedNegation(t *testing.T) {
	d := rel.NewDict()
	// Example 5.13's ¬TC program.
	p := MustParse(d, `
TC(x, y) :- E(x, y)
TC(x, y) :- TC(x, z), TC(z, y)
OUT(x, y) :- ADom(x), ADom(y), not TC(x, y)
`)
	st, err := Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 2 {
		t.Errorf("strata = %d, want 2", st.Count)
	}
	g := workload.PathGraph(3) // 0→1→2→3
	out, err := EvalQuery(p, g, "OUT")
	if err != nil {
		t.Fatal(err)
	}
	// adom = 4 values; 16 pairs; TC has 6; ¬TC has 10.
	if out.Len() != 10 {
		t.Errorf("¬TC = %d pairs, want 10", out.Len())
	}
	if out.Contains(rel.NewFact("OUT", 0, 3)) {
		t.Errorf("reachable pair in complement")
	}
	if !out.Contains(rel.NewFact("OUT", 3, 0)) {
		t.Errorf("unreachable pair missing from complement")
	}
}

func TestUnstratifiableRejected(t *testing.T) {
	d := rel.NewDict()
	p := MustParse(d, "Win(x) :- Move(x, y), not Win(y)")
	if _, err := Stratify(p); err == nil {
		t.Errorf("win-move stratified")
	}
	if _, err := Eval(p, rel.NewInstance()); err == nil {
		t.Errorf("Eval accepted unstratifiable program")
	}
}

// A relation the program derives and the EDB holds at another arity —
// a rule head, or the ADom the evaluator populates — is an error of the
// pair, named after the first rule that clashes, not a panic in the
// union; the EDB is left as it was, and the same program over an EDB
// holding the relation at the head's arity evaluates.
func TestEvalRefusesDerivedRelationAtAnotherArity(t *testing.T) {
	d := rel.NewDict()
	edb := rel.MustInstance(d, "E(a,b)")
	edb.AddAll(rel.MustInstance(d, "T(a,b)"))
	edb.AddAll(rel.MustInstance(d, "ADom(a,b)"))
	edb.EnsureRelation("Empty", 3)
	before := edb.Clone()
	for _, c := range []struct{ program, want string }{
		{"T(x) :- E(x, y)", "datalog: the program derives T at arity 1 but the instance holds it at arity 2"},
		{"U(x) :- E(x, y)\nT(x) :- E(x, y), not U(y)", "datalog: the program derives T at arity 1 but the instance holds it at arity 2"},
		{"Empty(x) :- E(x, y)", "datalog: the program derives Empty at arity 1 but the instance holds it at arity 3"},
		{"V(x) :- ADom(x), not E(x, x)", "datalog: the program derives ADom at arity 1 but the instance holds it at arity 2"},
	} {
		if _, err := Eval(MustParse(d, c.program), edb); err == nil || err.Error() != c.want {
			t.Errorf("%q: got %v, want %s", c.program, err, c.want)
		}
	}
	if !edb.Equal(before) {
		t.Errorf("a refused evaluation changed the EDB")
	}
	out, err := EvalQuery(MustParse(d, "T(x, y) :- E(y, x)"), edb, "T")
	if err != nil || out.Len() != 2 {
		t.Errorf("a head at the EDB's arity: %v, %v", out, err)
	}
}

func TestClassify(t *testing.T) {
	d := rel.NewDict()
	cases := []struct {
		src  string
		want mono.Class // MonotonicityClass
	}{
		{
			// Positive Datalog with inequality: in M.
			`Tri(x, y, z) :- E(x, y), E(y, z), E(z, x), x != y, y != z, z != x`,
			"M",
		},
		{
			// Semi-positive: negation on EDB only: Mdistinct.
			`Open(x, y, z) :- E(x, y), E(y, z), not E(z, x)`,
			"Mdistinct",
		},
		{
			// Example 5.13 ¬TC: stratified, first stratum connected,
			// last stratum may be disconnected: semi-connected →
			// Mdisjoint. (Negation on IDB TC, so not semi-positive.)
			`TC(x, y) :- E(x, y)
TC(x, y) :- TC(x, z), TC(z, y)
OUT(x, y) :- ADom(x), ADom(y), not TC(x, y)`,
			"Mdisjoint",
		},
	}
	for _, c := range cases {
		p := MustParse(d, c.src)
		got := Classify(p).MonotonicityClass()
		if got != c.want {
			t.Errorf("class of %q = %q, want %q", c.src, got, c.want)
		}
	}
}

// Example 5.13(2): the QNT program is NOT semi-connected because the
// rule for S has a disconnected body.
func TestExample513QNTNotSemiConnected(t *testing.T) {
	d := rel.NewDict()
	p := MustParse(d, `
T(x, y, z) :- E(x, y), E(y, z), E(z, x), y != x, y != z, x != z
S(x) :- ADom(x), T(u, v, w)
OUT(x, y) :- E(x, y), not S(x)
`)
	if IsSemiConnected(p) {
		t.Errorf("QNT program classified semi-connected; Example 5.13 says not")
	}
	if Classify(p).MonotonicityClass() != "" {
		t.Errorf("QNT program should have no syntactic monotonicity guarantee")
	}
	// It still evaluates fine under stratified semantics.
	tri := rel.MustInstance(d, "E(1,2)", "E(2,3)", "E(3,1)", "E(7,8)")
	out, err := EvalQuery(p, tri, "OUT")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("graph has a triangle; QNT should be empty, got %v", out)
	}
	noTri := rel.MustInstance(d, "E(1,2)", "E(2,3)")
	out2, err := EvalQuery(p, noTri, "OUT")
	if err != nil {
		t.Fatal(err)
	}
	if out2.Len() != 2 {
		t.Errorf("no triangle: QNT should return all edges, got %d", out2.Len())
	}
}

func TestExample513SemiConnected(t *testing.T) {
	d := rel.NewDict()
	p := MustParse(d, `
TC(x, y) :- E(x, y)
TC(x, y) :- TC(x, z), TC(z, y)
OUT(x, y) :- ADom(x), ADom(y), not TC(x, y)
`)
	if !IsSemiConnected(p) {
		t.Errorf("¬TC program should be semi-connected (Example 5.13)")
	}
	if IsConnected(p) {
		t.Errorf("¬TC program's last stratum is disconnected, so the program is not connected")
	}
	if IsSemiPositive(p) {
		t.Errorf("¬TC negates IDB TC; not semi-positive")
	}
}

func TestWellFoundedWinMove(t *testing.T) {
	d := rel.NewDict()
	p := WinMoveProgram(d)
	// Game graph: 0→1→2 (2 stuck: 2 lost, 1 won, 0 lost),
	// and a draw cycle 10→11→10, plus 20→21, 21→22, 22→21.
	moves := rel.MustInstance(d,
		"Move(0,1)", "Move(1,2)",
		"Move(10,11)", "Move(11,10)",
		"Move(20,21)", "Move(21,22)", "Move(22,21)",
	)
	res, err := WellFounded(p, moves)
	if err != nil {
		t.Fatal(err)
	}
	win := func(name string) bool {
		v, _ := d.Lookup(name)
		return res.True.Contains(rel.NewFact("Win", v))
	}
	draw := func(name string) bool {
		v, _ := d.Lookup(name)
		return res.Undefined.Contains(rel.NewFact("Win", v))
	}

	if !win("1") {
		t.Errorf("position 1 should be won (move to stuck 2)")
	}
	if win("0") || draw("0") {
		t.Errorf("position 0 should be lost")
	}
	if win("2") || draw("2") {
		t.Errorf("position 2 (stuck) should be lost")
	}
	if !draw("10") || !draw("11") {
		t.Errorf("cycle 10↔11 should be drawn")
	}
	// 21↔22 cycle with no escape: drawn; 20 moves into a draw: can 20
	// win? 20→21; if 21 is drawn, 20 is not won; 20 has no other move,
	// and its only successor is not lost, so 20 is drawn? In
	// well-founded terms Win(20) is undefined iff some successor is
	// undefined and none is false. 21 is undefined → Win(20) undefined.
	if !draw("20") || !draw("21") || !draw("22") {
		t.Errorf("20,21,22 should all be drawn; got win=%v/%v/%v draw=%v/%v/%v",
			win("20"), win("21"), win("22"), draw("20"), draw("21"), draw("22"))
	}
}

func TestWellFoundedAgreesWithStratifiedWhenStratifiable(t *testing.T) {
	d := rel.NewDict()
	p := MustParse(d, `
TC(x, y) :- E(x, y)
TC(x, y) :- TC(x, z), TC(z, y)
OUT(x, y) :- ADom(x), ADom(y), not TC(x, y)
`)
	g := workload.PathGraph(4)
	strat, err := EvalQuery(p, g, "OUT")
	if err != nil {
		t.Fatal(err)
	}
	wf, err := WellFounded(p, g)
	if err != nil {
		t.Fatal(err)
	}
	wfOut := rel.NewInstance()
	wf.True.Each(func(f rel.Fact) bool {
		if f.Rel == "OUT" {
			wfOut.Add(f)
		}
		return true
	})
	if !wfOut.Equal(strat) {
		t.Errorf("well-founded and stratified disagree on stratifiable program")
	}
	if wf.Undefined.Len() != 0 {
		t.Errorf("stratifiable program has undefined facts")
	}
}

func TestParseErrorsAndComments(t *testing.T) {
	d := rel.NewDict()
	if _, err := Parse(d, "% only a comment\n\n"); err == nil {
		t.Errorf("empty program accepted")
	}
	if _, err := Parse(d, "TC(x, y) :- E(x, y)\nbroken("); err == nil {
		t.Errorf("broken rule accepted")
	}
	p := MustParse(d, "% closure\nTC(x, y) :- E(x, y)")
	if len(p.Rules) != 1 {
		t.Errorf("comment handling broke rule count")
	}
	if _, err := Parse(d, "A(x) :- E(x, y)\nA(x, y) :- E(x, y)"); err == nil {
		t.Errorf("inconsistent head arity accepted")
	}
}

func TestValueInvention(t *testing.T) {
	d := rel.NewDict()
	// Invent one node per edge (a "reification" rule).
	p, err := ParseInvention(d, "N(x, y, w) :- E(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	edb := rel.MustInstance(d, "E(1,2)", "E(2,3)")
	out, rounds, err := EvalInvention(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 1 {
		t.Errorf("rounds = %d", rounds)
	}
	n := out.Relation("N")
	if n == nil || n.Len() != 2 {
		t.Fatalf("invented %v", out)
	}
	// Invented values are fresh and distinct per binding.
	seen := map[rel.Value]bool{}
	n.Each(func(tu rel.Tuple) bool {
		w := tu[2]
		if w < inventionBase {
			t.Errorf("invented value %d collides with data", w)
		}
		if seen[w] {
			t.Errorf("same skolem for different bindings")
		}
		seen[w] = true
		return true
	})
	// Determinism: rerun gives the same result.
	out2, _, err := EvalInvention(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(out2) {
		t.Errorf("invention nondeterministic")
	}
}

func TestValueInventionDivergenceBounded(t *testing.T) {
	d := rel.NewDict()
	// Each N invents a successor: diverges; must hit the bound.
	p, err := ParseInvention(d, "N(y) :- N(x)\nN(w) :- Seed(x)")
	if err != nil {
		t.Fatal(err)
	}
	_ = p
	// The first rule is safe (y... actually y unbound: invented).
	p.MaxRounds = 10
	_, _, err = EvalInvention(p, rel.MustInstance(d, "Seed(1)"))
	if err == nil {
		t.Errorf("divergent invention converged?")
	}
}

func TestProgramAccessors(t *testing.T) {
	d := rel.NewDict()
	p := MustParse(d, `
TC(x, y) :- E(x, y)
OUT(x, y) :- ADom(x), ADom(y), not TC(x, y)
`)
	idb := p.IDB()
	if !idb["TC"] || !idb["OUT"] || idb["E"] {
		t.Errorf("IDB = %v", idb)
	}
	rels := p.Relations()
	if len(rels) != 4 { // ADom, E, OUT, TC
		t.Errorf("Relations = %v", rels)
	}
	if !p.UsesADom() {
		t.Errorf("UsesADom false")
	}
	if p.String() == "" {
		t.Errorf("empty String")
	}
	st, _ := Stratify(p)
	order := st.StrataOrder()
	if len(order) != 2 || order[0] != "TC" || order[1] != "OUT" {
		t.Errorf("StrataOrder = %v", order)
	}
}

// evalCQ applies one rule on db, returning derived head facts.
func evalCQ(r *Rule, db *rel.Instance) *rel.Instance {
	out := rel.NewInstance()
	cq.Evaluate(r, db).Each(func(t rel.Tuple) bool {
		out.Add(rel.Fact{Rel: r.Head.Rel, Tuple: t})
		return true
	})
	return out
}

// Connected positive Datalog programs distribute over components
// (Ameloot-Ketsman-Neven-Zinn, ICDT 2015): cross-checked against the
// bounded component checker for a small program zoo.
func TestConnectedProgramsDistributeOverComponents(t *testing.T) {
	d := rel.NewDict()
	progs := []struct {
		src       string
		out       string
		connected bool
	}{
		{"TC(x, y) :- E(x, y)\nTC(x, y) :- TC(x, z), E(z, y)", "TC", true},
		{"Tri(x, y, z) :- E(x, y), E(y, z), E(z, x)", "Tri", true},
		// A disconnected rule: pairs of vertices from anywhere.
		{"P(x, y) :- E(x, u), E(y, v)", "P", false},
	}
	universe := []rel.Value{0, 1, 2}
	for _, c := range progs {
		p := MustParse(d, c.src)
		if got := IsConnected(p); got != c.connected {
			t.Errorf("IsConnected(%q) = %v, want %v", c.src, got, c.connected)
			continue
		}
		q := func(i *rel.Instance) *rel.Instance {
			out, err := EvalQuery(p, i, c.out)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		distributes := checkDistributesOverComponents(q, rel.Schema{"E": 2}, universe)
		if c.connected && !distributes {
			t.Errorf("connected program %q does not distribute over components", c.src)
		}
		if !c.connected && distributes {
			t.Errorf("disconnected program %q unexpectedly distributes", c.src)
		}
	}
}

func checkDistributesOverComponents(q func(*rel.Instance) *rel.Instance, schema rel.Schema, universe []rel.Value) bool {
	facts := schema.AllFacts(universe)
	ok := true
	for mask := 0; mask < 1<<len(facts); mask++ {
		inst := rel.NewInstance()
		for b, f := range facts {
			if mask&(1<<b) != 0 {
				inst.Add(f)
			}
		}
		union := rel.NewInstance()
		for _, j := range rel.Components(inst) {
			union.AddAll(q(j))
		}
		if !union.Equal(q(inst)) {
			ok = false
			break
		}
	}
	return ok
}

func TestStratifyMultipleStrata(t *testing.T) {
	d := rel.NewDict()
	p := MustParse(d, `
A(x) :- E(x, y)
B(x) :- ADom(x), not A(x)
C(x) :- ADom(x), not B(x)
`)
	st, err := Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 3 {
		t.Errorf("strata = %d, want 3", st.Count)
	}
	g := workload.PathGraph(2) // values 0,1,2; A = {0,1}
	out, err := EvalQuery(p, g, "C")
	if err != nil {
		t.Fatal(err)
	}
	// B = {2}; C = {0,1}.
	if out.Len() != 2 || !out.Contains(rel.NewFact("C", 0)) {
		t.Errorf("C = %v", out)
	}
}

func TestWellFoundedUnreachableEDBNegation(t *testing.T) {
	d := rel.NewDict()
	// EDB negation inside an unstratifiable program: ¬Blocked is
	// evaluated against the database, ¬Win against the alternating
	// fixpoint.
	p := MustParse(d, "Win(x) :- Move(x, y), not Win(y), not Blocked(x)")
	moves := rel.MustInstance(d, "Move(0,1)", "Blocked(0)", "Move(1,2)")
	res, err := WellFounded(p, moves)
	if err != nil {
		t.Fatal(err)
	}
	if res.True.Contains(rel.NewFact("Win", 0)) {
		t.Errorf("blocked position won")
	}
	if !res.True.Contains(rel.NewFact("Win", 1)) {
		t.Errorf("position 1 should win (2 is stuck)")
	}
}

// Blazes-style coordination analysis: positive strata stream; only
// strata consuming negated IDB relations need barriers.
func TestAnalyzeCoordination(t *testing.T) {
	d := rel.NewDict()
	// Pure positive recursion: zero barriers needed even though the
	// naive executor would still run it as one stratum.
	pos := MustParse(d, "TC(x, y) :- E(x, y)\nTC(x, y) :- TC(x, z), E(z, y)")
	rep, err := AnalyzeCoordination(pos)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Barriers) != 0 || len(rep.MonotoneStrata) != rep.Strata {
		t.Errorf("positive program needs barriers: %+v", rep)
	}

	// A 3-stratum program where the middle dependency is positive:
	// stratum 1 builds on stratum 0 monotonically (streams), stratum 2
	// negates — exactly one barrier versus two naive ones.
	p := MustParse(d, `
A(x, y) :- E(x, y)
A(x, y) :- A(x, z), E(z, y)
B(x, y) :- A(x, y), E(y, x)
OUT(x) :- ADom(x), not B(x, x)
`)
	rep, err = AnalyzeCoordination(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strata != 2 {
		// A and B are both stratum 0 (positive deps), OUT stratum 1.
		t.Fatalf("strata = %d", rep.Strata)
	}
	if len(rep.Barriers) != 1 {
		t.Fatalf("barriers = %v", rep.Barriers)
	}
	if rep.Barriers[0].BeforeStratum != 1 || rep.Barriers[0].OnRelations[0] != "B" {
		t.Errorf("barrier = %v", rep.Barriers[0])
	}
	// Naive edges: A→B (positive, streams) and B→OUT (negative,
	// barrier): one barrier saved.
	if rep.NaiveBarriers != 2 || rep.Saved() != 1 {
		t.Errorf("naive = %d saved = %d, want 2/1", rep.NaiveBarriers, rep.Saved())
	}
	if rep.Barriers[0].String() == "" {
		t.Errorf("empty barrier string")
	}

	// Deeper chain with only positive inter-stratum edges collapses to
	// one stratum → all naive barriers saved. Force multiple strata
	// with EDB negation (no IDB barrier needed).
	sp := MustParse(d, `
A(x) :- E(x, y), not F(x)
B(x) :- A(x), not G(x)
`)
	rep, err = AnalyzeCoordination(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Barriers) != 0 {
		t.Errorf("EDB negation should need no barriers: %v", rep.Barriers)
	}

	// Unstratifiable input is rejected.
	if _, err := AnalyzeCoordination(MustParse(d, "Win(x) :- Move(x, y), not Win(y)")); err == nil {
		t.Errorf("win-move accepted by coordination analysis")
	}
}

// StrataOrder returns the IDB predicates sorted by (stratum, name) —
// useful for deterministic reporting.
func (s *Stratification) StrataOrder() []string {
	out := make([]string, 0, len(s.Stratum))
	for q := range s.Stratum {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := s.Stratum[out[i]], s.Stratum[out[j]]
		if si != sj {
			return si < sj
		}
		return out[i] < out[j]
	})
	return out
}

// Relations returns every relation mentioned by the program, sorted.
func (p *Program) Relations() []string {
	seen := map[string]bool{}
	for _, r := range p.Rules {
		seen[r.Head.Rel] = true
		for _, a := range r.Body {
			seen[a.Rel] = true
		}
		for _, a := range r.Neg {
			seen[a.Rel] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
