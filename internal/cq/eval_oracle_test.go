package cq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// evaluateReference is the evaluator as it was while every intermediate
// binding set was a rel.Relation: a Tuple.Hash, a probe and an insert
// per row, a map[uint64][]rel.Tuple per atom, a second hash set per
// filter. It is kept as the slow-form oracle the row-based evaluator is
// held equal to — as a set, and in Each order, which the hash sets
// produced as insertion order and the rows must reproduce.
func evaluateReference(q *CQ, i *rel.Instance) *rel.Relation {
	vars, tuples := evalBindingsReference(q, i)
	out := rel.NewRelation(q.Head.Rel, len(q.Head.Args))
	if tuples == nil {
		return out
	}
	pos := make(map[string]int, len(vars))
	for k, v := range vars {
		pos[v] = k
	}
	h := make(rel.Tuple, len(q.Head.Args))
	tuples.Each(func(t rel.Tuple) bool {
		for k, arg := range q.Head.Args {
			if arg.IsVar() {
				h[k] = t[pos[arg.Var]]
			} else {
				h[k] = arg.Const
			}
		}
		out.Add(h)
		return true
	})
	return out
}

func evalBindingsReference(q *CQ, inst *rel.Instance) ([]string, *rel.Relation) {
	remaining := make([]Atom, len(q.Body))
	copy(remaining, q.Body)

	var vars []string
	bound := map[string]int{}
	current := rel.NewRelation("⋈", 0)
	current.Add(rel.Tuple{})

	diseqApplied := make([]bool, len(q.Diseq))

	applyDiseqs := func() {
		for di, d := range q.Diseq {
			if diseqApplied[di] {
				continue
			}
			c0, ok0 := termCol(d[0], bound)
			c1, ok1 := termCol(d[1], bound)
			if !ok0 || !ok1 {
				continue
			}
			diseqApplied[di] = true
			current = rel.Select(current, func(t rel.Tuple) bool {
				return termVal(d[0], t, c0) != termVal(d[1], t, c1)
			})
		}
	}

	for len(remaining) > 0 {
		best := 0
		bestScore := -1
		bestSize := int(^uint(0) >> 1)
		for k, a := range remaining {
			score := 0
			for _, t := range a.Args {
				if t.IsVar() {
					if _, ok := bound[t.Var]; ok {
						score++
					}
				} else {
					score++
				}
			}
			size := 0
			if r := inst.Relation(a.Rel); r != nil {
				size = r.Len()
			}
			if score > bestScore || (score == bestScore && size < bestSize) {
				best, bestScore, bestSize = k, score, size
			}
		}
		a := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)

		src := inst.Relation(a.Rel)
		if src == nil || src.Len() == 0 {
			return nil, nil
		}

		atomVars := a.Vars()
		varFirstPos := map[string]int{}
		for p, t := range a.Args {
			if t.IsVar() {
				if _, ok := varFirstPos[t.Var]; !ok {
					varFirstPos[t.Var] = p
				}
			}
		}
		admits := func(t rel.Tuple) bool {
			for p, arg := range a.Args {
				if arg.IsVar() {
					if t[varFirstPos[arg.Var]] != t[p] {
						return false
					}
				} else if t[p] != arg.Const {
					return false
				}
			}
			return true
		}

		var shared, fresh []string
		for _, v := range atomVars {
			if _, ok := bound[v]; ok {
				shared = append(shared, v)
			} else {
				fresh = append(fresh, v)
			}
		}
		sharedAtomCols := make([]int, len(shared))
		sharedCurCols := make([]int, len(shared))
		for k, v := range shared {
			sharedAtomCols[k] = varFirstPos[v]
			sharedCurCols[k] = bound[v]
		}
		freshCols := make([]int, len(fresh))
		for k, v := range fresh {
			freshCols[k] = varFirstPos[v]
		}

		idx := make(map[uint64][]rel.Tuple, src.Len())
		src.Each(func(t rel.Tuple) bool {
			if !admits(t) {
				return true
			}
			h := t.Project(sharedAtomCols).Hash()
			idx[h] = append(idx[h], t)
			return true
		})

		next := rel.NewRelationSize("⋈", current.Arity+len(fresh), current.Len())
		scratch := make(rel.Tuple, current.Arity+len(fresh))
		curArity := current.Arity
		current.Each(func(t rel.Tuple) bool {
			h := t.Project(sharedCurCols).Hash()
			for _, s := range idx[h] {
				if !t.Project(sharedCurCols).Equal(s.Project(sharedAtomCols)) {
					continue
				}
				copy(scratch, t)
				for k, c := range freshCols {
					scratch[curArity+k] = s[c]
				}
				next.Add(scratch)
			}
			return true
		})
		current = next
		for _, v := range fresh {
			bound[v] = len(vars)
			vars = append(vars, v)
		}
		applyDiseqs()
		if current.Len() == 0 {
			return nil, nil
		}
	}

	applyDiseqs()

	for _, a := range q.Neg {
		cols := make([]int, len(a.Args))
		for p, t := range a.Args {
			if t.IsVar() {
				cols[p] = bound[t.Var]
			} else {
				cols[p] = -1
			}
		}
		current = rel.Select(current, func(t rel.Tuple) bool {
			ft := make(rel.Tuple, len(a.Args))
			for p := range a.Args {
				if cols[p] >= 0 {
					ft[p] = t[cols[p]]
				} else {
					ft[p] = a.Args[p].Const
				}
			}
			return !inst.Contains(rel.Fact{Rel: a.Rel, Tuple: ft})
		})
	}
	if current.Len() == 0 {
		return nil, nil
	}
	return vars, current
}

// describe names an instance in a failure message: its facts when they
// fit on a line, its size otherwise.
func describe(i *rel.Instance) string {
	if i.Len() > 24 {
		return fmt.Sprintf("an instance of %d facts", i.Len())
	}
	return i.String()
}

// eachOrder lists a relation's tuples in Each order.
func eachOrder(r *rel.Relation) []rel.Tuple {
	var out []rel.Tuple
	r.Each(func(t rel.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// checkAgainstReference holds one (query, instance) pair to the oracle:
// the same answer in the same Each order, the same bindings row for row
// over the same variable order, and — the invariant that licenses
// keeping rows instead of a set — no two binding rows equal.
func checkAgainstReference(t *testing.T, q *CQ, i *rel.Instance) {
	t.Helper()
	want := eachOrder(evaluateReference(q, i))
	got := eachOrder(Evaluate(q, i))
	if len(got) != len(want) {
		t.Fatalf("%v on %v: %d tuples, the reference has %d", q, describe(i), len(got), len(want))
	}
	for k := range want {
		if !got[k].Equal(want[k]) {
			t.Fatalf("%v on %v: tuple %d in Each order is %v, the reference has %v", q, describe(i), k, got[k], want[k])
		}
	}

	// The generic join is one more evaluator of every query it accepts:
	// the same answer as a set, from rows that are bindings — no two
	// equal.
	if !q.HasNegation() {
		gj, err := GenericJoin(q, i)
		if err != nil {
			t.Fatalf("%v: the generic join refused a positive query: %v", q, err)
		}
		if !gj.Equal(evaluateReference(q, i)) {
			t.Fatalf("%v on %v: the generic join has %v, the reference %v", q, describe(i), gj.Tuples(), want)
		}
		_, gb := joinBindings(q, i)
		gjRows := rel.NewRelation("rows", gb.width)
		gb.each(func(r rel.Tuple) bool {
			if !gjRows.Add(r) {
				t.Fatalf("%v on %v: the generic join's binding row %v occurs twice", q, describe(i), r)
			}
			return true
		})
	}

	wantVars, wantRows := evalBindingsReference(q, i)
	vars, b := evalBindings(q, i)
	if wantRows == nil {
		if b.n != 0 {
			t.Fatalf("%v on %v: %d binding rows, the reference has none", q, describe(i), b.n)
		}
		return
	}
	if len(vars) != len(wantVars) || b.width != len(vars) {
		t.Fatalf("%v: variable order %v (width %d), the reference has %v", q, vars, b.width, wantVars)
	}
	for k := range vars {
		if vars[k] != wantVars[k] {
			t.Fatalf("%v: variable order %v, the reference has %v", q, vars, wantVars)
		}
	}
	rows := eachOrder(wantRows)
	if b.n != len(rows) {
		t.Fatalf("%v on %v: %d binding rows, the reference has %d", q, describe(i), b.n, len(rows))
	}
	seen := rel.NewRelation("rows", b.width)
	b.each(func(r rel.Tuple) bool {
		if !r.Equal(rows[seen.Len()]) {
			t.Fatalf("%v on %v: binding row %d is %v, the reference has %v", q, describe(i), seen.Len(), r, rows[seen.Len()])
		}
		if !seen.Add(r) {
			t.Fatalf("%v on %v: binding row %v occurs twice", q, describe(i), r)
		}
		return true
	})

	// EvaluateInto into a relation that already holds a row adds the
	// answer and keeps what was there.
	held := make(rel.Tuple, len(q.Head.Args))
	for k := range held {
		held[k] = -99
	}
	into := rel.NewRelation(q.Head.Rel, len(held))
	into.Add(held)
	EvaluateInto(into, q, i)
	ref := evaluateReference(q, i)
	ref.Add(held)
	if !into.Equal(ref) {
		t.Fatalf("%v on %v: EvaluateInto into {%v} left %v, want %v", q, describe(i), held, into.Tuples(), ref.Tuples())
	}
}

// The hand-written inputs of the TestEvaluate* suite, against the
// oracle.
func TestEvaluateMatchesReferenceOnSuiteInputs(t *testing.T) {
	d := rel.NewDict()
	for _, c := range []struct {
		query string
		facts []string
	}{
		{"H(x, y, z) :- R(x, y), S(y, z)", []string{"R(a,b)", "R(c,b)", "S(b,d)", "S(e,f)"}},
		{"H(x, y, z) :- R(x, y), S(y, z), T(z, x)", []string{"R(a,b)", "S(b,c)", "T(c,a)", "R(a,a)", "S(a,a)", "T(a,a)", "T(c,b)"}},
		{"H(x, z) :- R(x, y), R(y, z), R(x, x)", []string{"R(a,b)", "R(b,a)", "R(a,a)"}},
		{"H(x) :- R(x, 'b')", []string{"R(a,b)", "R(c,d)"}},
		{"H(x, 'k') :- R(x, y)", []string{"R(a,b)", "R(c,d)"}},
		{"H(x, y) :- E(x, y), x != y", []string{"E(a,a)", "E(a,b)"}},
		{"H(x, y, z) :- E(x, y), E(y, z), not E(z, x)", []string{"E(a,b)", "E(b,c)", "E(c,a)", "E(b,d)"}},
		{"H() :- S(x), R(x, x), T(x)", []string{"S(a)", "R(a,a)", "T(a)"}},
		{"H() :- S(x), R(x, x), T(x)", []string{"S(a)", "R(a,b)", "T(a)"}},
		{"H(x) :- R(x), S(x)", []string{"R(a)"}},
		{"H(x) :- R(x, y)", []string{"R(a,b)", "R(a,c)"}},
	} {
		checkAgainstReference(t, MustParse(d, c.query), rel.MustInstance(d, c.facts...))
	}
}

// The serving set A–F of benchmark/serve.go on the generator instances
// mpcd serves them on, whole and as the round-robin fragments a fresh
// session holds; and the triangle on both triangle generators.
func TestEvaluateMatchesReferenceOnWorkloads(t *testing.T) {
	d := rel.NewDict()
	join := workload.JoinSkewFree(600)
	fragments := make([]*rel.Instance, 4)
	for k := range fragments {
		fragments[k] = rel.NewInstance()
	}
	for k, f := range join.Facts() {
		fragments[k%len(fragments)].Add(f)
	}
	for _, src := range []string{
		"A(x, z) :- R(x, y), S(y, z)",
		"B(x) :- R(x, y), S(y, z)",
		"C(z, x) :- S(y, z), R(x, y)",
		"D(x, y) :- R(x, y)",
		"E() :- R(x, y), S(y, z)",
		"F(x, z) :- R(x, y), R(y, z)",
	} {
		q := MustParse(d, src)
		checkAgainstReference(t, q, join)
		checkAgainstReference(t, q, workload.JoinSkewed(600, 0.2))
		for _, frag := range fragments {
			checkAgainstReference(t, q, frag)
		}
	}
	triangle := MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	checkAgainstReference(t, triangle, workload.TriangleSkewFree(500))
	checkAgainstReference(t, triangle, workload.TriangleSkewed(500, 0.2))
}

// randomEvalCQ widens Random's SmallJoins for the evaluator, the one
// consumer of either: sometimes a constant in the head, sometimes a
// negated atom over bound variables and the constant.
func randomEvalCQ(r *rand.Rand) *CQ {
	q := Random(r, SmallJoins)
	var bound []Term
	for _, v := range []string{"x", "y", "z"} {
		if q.BodyVars()[v] {
			bound = append(bound, V(v))
		}
	}
	if r.Intn(4) == 0 {
		q.Head.Args = append(q.Head.Args, C(rel.Value(r.Intn(3))))
	}
	if r.Intn(3) == 0 && len(bound) > 0 {
		pool := append(bound, C(7), C(1))
		name, arity := "T", 1
		if r.Intn(2) == 0 {
			name, arity = []string{"R", "S"}[r.Intn(2)], 2
		}
		args := make([]Term, arity)
		for k := range args {
			args[k] = pool[r.Intn(len(pool))]
		}
		q.Neg = append(q.Neg, NewAtom(name, args...))
	}
	return q
}

// randomEvalInstance draws facts over {R/2, S/2, T/1} from a domain of
// five values that includes the generators' constants, so constants
// match, repeated variables find their diagonal and products are small
// but not trivial. One relation in four is left out (missing), which
// together with a sparse draw also produces empty joins.
func randomEvalInstance(r *rand.Rand) *rel.Instance {
	dom := []rel.Value{0, 1, 2, 3, 7}
	i := rel.NewInstance()
	for _, name := range []string{"R", "S"} {
		if r.Intn(4) == 0 {
			continue
		}
		for n := r.Intn(12); n > 0; n-- {
			i.Add(rel.NewFact(name, dom[r.Intn(len(dom))], dom[r.Intn(len(dom))]))
		}
	}
	if r.Intn(4) != 0 {
		for n := r.Intn(5); n > 0; n-- {
			i.Add(rel.NewFact("T", dom[r.Intn(len(dom))]))
		}
	}
	return i
}

// 400 seeded random CQs with inequalities and negation, three random
// instances each, against the oracle — and a census that every feature
// the generators are meant to produce did occur, so a change to them
// cannot silently stop testing one.
func TestEvaluateMatchesReferenceOnRandomQueries(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	census := map[string]int{}
	for n := 0; n < 400; n++ {
		q := randomEvalCQ(r)
		if err := q.Validate(); err != nil {
			t.Fatalf("generator produced %v: %v", q, err)
		}
		rels := map[string]int{}
		connected := map[string]bool{}
		for k, a := range q.Body {
			rels[a.Rel]++
			seen := map[string]bool{}
			joins := k == 0
			for _, arg := range a.Args {
				switch {
				case !arg.IsVar():
					census["body constant"]++
				case seen[arg.Var]:
					census["repeated variable in an atom"]++
				case connected[arg.Var]:
					joins = true
				}
				if arg.IsVar() {
					seen[arg.Var] = true
				}
			}
			if !joins && len(seen) > 0 {
				census["cartesian product"]++
			}
			for v := range seen {
				connected[v] = true
			}
		}
		for _, c := range rels {
			if c > 1 {
				census["self-join"]++
			}
		}
		for _, arg := range q.Head.Args {
			if !arg.IsVar() {
				census["head constant"]++
			}
		}
		switch nv := len(q.Head.Vars()); {
		case len(q.Head.Args) == 0:
			census["boolean head"]++
		case nv == len(q.BodyVars()):
			census["full head"]++
		default:
			census["projected head"]++
		}
		census["inequality"] += len(q.Diseq)
		census["negated atom"] += len(q.Neg)

		for k := 0; k < 3; k++ {
			i := randomEvalInstance(r)
			for _, a := range q.Body {
				switch src := i.Relation(a.Rel); {
				case src == nil:
					census["missing relation"]++
				case src.Len() == 0:
					census["empty relation"]++
				}
			}
			if Evaluate(q, i).Len() > 0 {
				census["non-empty answer"]++
			} else {
				census["empty answer"]++
			}
			checkAgainstReference(t, q, i)
		}
	}
	for _, feature := range []string{
		"body constant", "repeated variable in an atom", "cartesian product", "self-join",
		"head constant", "boolean head", "full head", "projected head", "inequality",
		"negated atom", "missing relation", "non-empty answer", "empty answer",
	} {
		if census[feature] == 0 {
			t.Errorf("no random query exercised: %s", feature)
		}
	}
	t.Logf("census: %v", census)
}

// An empty relation — present in the instance but holding nothing —
// ends evaluation the way a missing one does.
func TestEvaluateEmptyRelationMatchesReference(t *testing.T) {
	d := rel.NewDict()
	i := rel.MustInstance(d, "R(a,b)")
	i.EnsureRelation("S", 2)
	if s := i.Relation("S"); s == nil || s.Len() != 0 {
		t.Fatalf("S should be present and empty, have %v", s)
	}
	checkAgainstReference(t, MustParse(d, "H(x, z) :- R(x, y), S(y, z)"), i)
	checkAgainstReference(t, MustParse(d, "H(x) :- R(x, y), not S(y, y)"), i)
}

// A Boolean head holds one row however many bindings derive it and
// none when nothing does — through Evaluate, and through EvaluateInto
// into a relation that already holds the row.
func TestEvaluateBooleanHeadAddsOneRow(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "E() :- R(x, y), S(y, z)")
	joining := workload.JoinSkewFree(300)
	empty := rel.MustInstance(d, "R(a,b)", "S(c,d)")

	if out := Evaluate(q, joining); out.Len() != 1 || !out.Contains(rel.Tuple{}) {
		t.Errorf("E() on a non-empty join: %v, want {()}", out.Tuples())
	}
	if out := Evaluate(q, empty); out.Len() != 0 {
		t.Errorf("E() on an empty join: %v, want {}", out.Tuples())
	}
	out := rel.NewRelation("E", 0)
	for k := 0; k < 3; k++ {
		EvaluateInto(out, q, joining)
		EvaluateInto(out, q, empty)
	}
	if out.Len() != 1 {
		t.Errorf("E() projected six times into one relation holds %d rows, want 1", out.Len())
	}
	if got := Output(q, empty).Relation("E"); got == nil || got.Len() != 0 {
		t.Errorf("Output of an empty Boolean answer: %v, want the head relation, empty", got)
	}
}

// checkParts holds one EvaluateInto over several parts to the
// sequential one-part calls it replaces, into relations that start with
// the rows held: the same rows, as a set and in Each order.
func checkParts(t *testing.T, q *CQ, held []rel.Tuple, parts ...*rel.Instance) {
	t.Helper()
	want := rel.NewRelation(q.Head.Rel, len(q.Head.Args))
	got := rel.NewRelation(q.Head.Rel, len(q.Head.Args))
	for _, h := range held {
		want.Add(h)
		got.Add(h)
	}
	for _, part := range parts {
		EvaluateInto(want, q, part)
	}
	EvaluateInto(got, q, parts...)
	w, g := eachOrder(want), eachOrder(got)
	if len(g) != len(w) {
		t.Fatalf("%v over %d parts holding %v: %d rows, sequential calls leave %d", q, len(parts), held, len(g), len(w))
	}
	for k := range w {
		if !g[k].Equal(w[k]) {
			t.Fatalf("%v over %d parts holding %v: row %d in Each order is %v, sequential calls have %v", q, len(parts), held, k, g[k], w[k])
		}
	}
}

// 300 seeded random CQs, each over a random instance dealt into one to
// five random parts (some of them empty), into a relation that sometimes
// already holds rows — one the answer derives and one it does not.
func TestEvaluateIntoPartsMatchesSequentialCalls(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	census := map[string]int{}
	for n := 0; n < 300; n++ {
		q := randomEvalCQ(r)
		i := randomEvalInstance(r)
		parts := make([]*rel.Instance, 1+r.Intn(5))
		for k := range parts {
			parts[k] = rel.NewInstance()
		}
		for _, f := range i.Facts() {
			parts[r.Intn(len(parts))].Add(f)
		}
		var held []rel.Tuple
		if r.Intn(3) == 0 {
			if ans := eachOrder(Evaluate(q, i)); len(ans) > 0 {
				held = append(held, ans[r.Intn(len(ans))])
			}
			off := make(rel.Tuple, len(q.Head.Args))
			for k := range off {
				off[k] = -99
			}
			held = append(held, off)
			census["rows held"]++
		}
		for _, part := range parts {
			if part.IsEmpty() {
				census["empty part"]++
			}
		}
		switch {
		case len(q.Head.Args) == 0:
			census["boolean head"]++
		case len(q.Head.Vars()) < len(q.Head.Args):
			census["head constant"]++
		}
		if len(parts) > 1 {
			census["several parts"]++
		}
		checkParts(t, q, held, parts...)
	}
	for _, feature := range []string{"rows held", "empty part", "boolean head", "head constant", "several parts"} {
		if census[feature] == 0 {
			t.Errorf("no random trial exercised: %s", feature)
		}
	}
}

// Parts whose greedy atom orders differ — the smaller relation goes
// first, so the variable order follows each part's sizes — between parts
// that come up empty: one with nothing in it, one missing a relation,
// and one whose join empties after the first atom has bound some
// variables. Under a projected head, a head constant and a Boolean head.
func TestEvaluateIntoPartsKeepTheirOwnVariableOrder(t *testing.T) {
	d := rel.NewDict()
	rFirst := rel.MustInstance(d, "R(a,b)", "S(b,c)", "S(b,d)", "S(e,f)")
	sFirst := rel.MustInstance(d, "R(g,h)", "R(i,h)", "R(k,l)", "S(h,j)")
	partial := rel.MustInstance(d, "R(a,b)", "S(c,d)", "S(e,f)")
	missing := rel.MustInstance(d, "R(a,b)", "R(b,c)")
	empty := rel.NewInstance()

	join := MustParse(d, "H(x, z) :- R(x, y), S(y, z)")
	v1, b1 := evalBindings(join, rFirst)
	v2, b2 := evalBindings(join, sFirst)
	if b1.n == 0 || b2.n == 0 || slices.Equal(v1, v2) {
		t.Fatalf("the parts should join over different variable orders, have %v and %v", v1, v2)
	}
	if v, b := evalBindings(join, partial); b.n != 0 || v != nil {
		t.Fatalf("the partial part should come up empty, has %d rows over %v", b.n, v)
	}
	for _, src := range []string{
		"H(x, z) :- R(x, y), S(y, z)",
		"H(z, 'k', x) :- R(x, y), S(y, z)",
		"H(y) :- R(x, y), S(y, z)",
		"H() :- R(x, y), S(y, z)",
	} {
		q := MustParse(d, src)
		for _, parts := range [][]*rel.Instance{
			{rFirst, sFirst},
			{sFirst, partial, rFirst},
			{empty, partial, missing, sFirst, empty, rFirst},
			{partial, missing, empty},
			{empty},
			{},
		} {
			checkParts(t, q, nil, parts...)
			checkParts(t, q, []rel.Tuple{make(rel.Tuple, len(q.Head.Args))}, parts...)
		}
	}
}
