package cq

import (
	"math/rand"
	"testing"

	"mpclogic/internal/rel"
)

func TestEvaluateSimpleJoin(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x, y, z) :- R(x, y), S(y, z)")
	i := rel.MustInstance(d, "R(a,b)", "R(c,b)", "S(b,d)", "S(e,f)")
	out := Evaluate(q, i)
	want := rel.MustInstance(d, "H(a,b,d)", "H(c,b,d)").Relation("H")
	if !out.Equal(want) {
		t.Errorf("got %v", out.Tuples())
	}
}

func TestEvaluateTriangle(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	i := rel.MustInstance(d, "R(a,b)", "S(b,c)", "T(c,a)", "R(a,a)", "S(a,a)", "T(a,a)", "T(c,b)")
	out := Evaluate(q, i)
	want := rel.MustInstance(d, "H(a,b,c)", "H(a,a,a)").Relation("H")
	if !out.Equal(want) {
		t.Errorf("got %v want %v", out.Tuples(), want.Tuples())
	}
}

func TestEvaluateSelfJoinRepeatedVars(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x, z) :- R(x, y), R(y, z), R(x, x)")
	i := rel.MustInstance(d, "R(a,b)", "R(b,a)", "R(a,a)")
	out := Evaluate(q, i)
	// valuations: x=a needs R(a,a): pairs via y: (a,b)->R(b,?): z=a; y=a: z in {a,b}.
	want := rel.MustInstance(d, "H(a,a)", "H(a,b)").Relation("H")
	if !out.Equal(want) {
		t.Errorf("got %v want %v", out.Tuples(), want.Tuples())
	}
}

func TestEvaluateWithConstants(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x) :- R(x, 'b')")
	i := rel.MustInstance(d, "R(a,b)", "R(c,d)")
	out := Evaluate(q, i)
	if out.Len() != 1 || !out.Contains(rel.Tuple{d.Value("a")}) {
		t.Errorf("got %v", out.Tuples())
	}
	// Constant in head.
	q2 := MustParse(d, "H(x, 'k') :- R(x, y)")
	out2 := Evaluate(q2, i)
	if out2.Len() != 2 || !out2.Contains(rel.Tuple{d.Value("a"), d.Value("k")}) {
		t.Errorf("head constant missing: %v", out2.Tuples())
	}
}

func TestEvaluateDiseq(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x, y) :- E(x, y), x != y")
	i := rel.MustInstance(d, "E(a,a)", "E(a,b)")
	out := Evaluate(q, i)
	if out.Len() != 1 || !out.Contains(rel.Tuple{d.Value("a"), d.Value("b")}) {
		t.Errorf("got %v", out.Tuples())
	}
}

func TestEvaluateOpenTriangle(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x, y, z) :- E(x, y), E(y, z), not E(z, x)")
	i := rel.MustInstance(d, "E(a,b)", "E(b,c)", "E(c,a)", "E(b,d)")
	out := Evaluate(q, i)
	// Closed: (a,b,c),(b,c,a),(c,a,b). Open paths: a-b-d (no E(d,a)) and
	// any path whose closing edge is absent.
	if out.Contains(rel.Tuple{d.Value("a"), d.Value("b"), d.Value("c")}) {
		t.Errorf("closed triangle reported as open")
	}
	if !out.Contains(rel.Tuple{d.Value("a"), d.Value("b"), d.Value("d")}) {
		t.Errorf("open path a,b,d missing: %v", out.Tuples())
	}
}

func TestEvaluateBooleanQuery(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H() :- S(x), R(x, x), T(x)")
	yes := rel.MustInstance(d, "S(a)", "R(a,a)", "T(a)")
	no := rel.MustInstance(d, "S(a)", "R(a,b)", "T(a)")
	if Evaluate(q, yes).Len() != 1 {
		t.Errorf("boolean true case empty")
	}
	if Evaluate(q, no).Len() != 0 {
		t.Errorf("boolean false case nonempty")
	}
}

func TestEvaluateEmptyRelation(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x) :- R(x), S(x)")
	i := rel.MustInstance(d, "R(a)")
	if Evaluate(q, i).Len() != 0 {
		t.Errorf("missing relation should give empty result")
	}
}

// An atom over a relation the instance holds at another arity matches
// nothing — wider or narrower than the data, first in the body or joined
// on a bound variable, positive or negated — and does not index past a
// tuple's end; the generic join, where it applies, says the same.
func TestEvaluateAtomAtAnotherArity(t *testing.T) {
	d := rel.NewDict()
	i := rel.MustInstance(d, "R(a,b)", "R(b,c)", "S(b)")
	for _, c := range []struct {
		query string
		want  int
	}{
		{"H(x) :- R(x, y, z)", 0},
		{"H(x) :- R(x)", 0},
		{"H(x) :- S(x), R(x, y, z)", 0},
		{"H(x) :- S(x), R(x)", 0},
		{"H(x) :- S(x), not R(x)", 1},
		{"H(x) :- S(x), not R(x, x, x)", 1},
	} {
		q := MustParse(d, c.query)
		if got := Evaluate(q, i).Len(); got != c.want {
			t.Errorf("%s: %d answers, want %d", c.query, got, c.want)
		}
		if q.HasNegation() {
			continue
		}
		if got, err := GenericJoin(q, i); err != nil || got.Len() != c.want {
			t.Errorf("%s: the generic join has %v (%v), want %d answers", c.query, got, err, c.want)
		}
	}
}

func TestSatisfyingValuations(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x) :- R(x, y)")
	i := rel.MustInstance(d, "R(a,b)", "R(a,c)")
	vals := SatisfyingValuations(q, i)
	if len(vals) != 2 {
		t.Fatalf("got %d valuations", len(vals))
	}
	for _, v := range vals {
		if !v.Satisfies(q, i) {
			t.Errorf("returned valuation does not satisfy: %v", v)
		}
		if v["x"] != d.Value("a") {
			t.Errorf("x = %v", v["x"])
		}
	}
}

func TestOutputUCQ(t *testing.T) {
	d := rel.NewDict()
	u := MustParseUCQ(d, "H(x) :- R(x, x); H(y) :- S(y)")
	i := rel.MustInstance(d, "R(a,a)", "R(a,b)", "S(c)")
	out := OutputUCQ(u, i)
	want := rel.MustInstance(d, "H(a)", "H(c)")
	if !out.Equal(want) {
		t.Errorf("got %v want %v", out.StringWith(d), want.StringWith(d))
	}
}

// Naive reference evaluator: enumerate all valuations over adom(I).
func naiveEvaluate(q *CQ, i *rel.Instance) *rel.Relation {
	out := rel.NewRelation(q.Head.Rel, len(q.Head.Args))
	universe := i.ADom().Sorted()
	AllValuations(q.Vars(), universe, func(v Valuation) bool {
		if v.Satisfies(q, i) {
			out.Add(v.Derives(q).Tuple)
		}
		return true
	})
	return out
}

// Property: the join-plan evaluator agrees with the naive evaluator on
// random small instances and a portfolio of query shapes.
func TestPropEvaluateAgreesWithNaive(t *testing.T) {
	d := rel.NewDict()
	queries := []*CQ{
		MustParse(d, "H(x, y) :- R(x, y)"),
		MustParse(d, "H(x, z) :- R(x, y), R(y, z)"),
		MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)"),
		MustParse(d, "H(x) :- R(x, x), S(x, y)"),
		MustParse(d, "H(x, y) :- R(x, y), not S(y, x)"),
		MustParse(d, "H(x, y) :- R(x, y), x != y"),
		MustParse(d, "H() :- R(x, y), S(y, x)"),
		MustParse(d, "H(x, z) :- R(x, y), R(y, z), S(z, x), not T(x, z), x != z"),
	}
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 80; trial++ {
		i := rel.NewInstance()
		n := r.Intn(14)
		for k := 0; k < n; k++ {
			name := []string{"R", "S", "T"}[r.Intn(3)]
			i.Add(rel.NewFact(name, rel.Value(r.Intn(4)), rel.Value(r.Intn(4))))
		}
		for _, q := range queries {
			fast := Evaluate(q, i)
			slow := naiveEvaluate(q, i)
			if !fast.Equal(slow) {
				t.Fatalf("query %v on %v:\nfast %v\nslow %v", q, i, fast.Tuples(), slow.Tuples())
			}
		}
	}
}

func TestPropEvaluateMonotoneForPureCQ(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x, z) :- R(x, y), S(y, z)")
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		i := rel.NewInstance()
		j := rel.NewInstance()
		for k := 0; k < r.Intn(10); k++ {
			i.Add(rel.NewFact([]string{"R", "S"}[r.Intn(2)], rel.Value(r.Intn(4)), rel.Value(r.Intn(4))))
		}
		for k := 0; k < r.Intn(10); k++ {
			j.Add(rel.NewFact([]string{"R", "S"}[r.Intn(2)], rel.Value(r.Intn(4)), rel.Value(r.Intn(4))))
		}
		small := Evaluate(q, i)
		big := Evaluate(q, i.Union(j))
		small.Each(func(tu rel.Tuple) bool {
			if !big.Contains(tu) {
				t.Fatalf("pure CQ not monotone: %v lost", tu)
			}
			return true
		})
	}
}

// Satisfies reports whether V satisfies Q on I: all required facts are
// in I, no negated fact is in I, and all inequalities hold.
func (v Valuation) Satisfies(q *CQ, i *rel.Instance) bool {
	if !v.SatisfiesDiseq(q) {
		return false
	}
	for _, a := range q.Body {
		if !i.Contains(v.Apply(a)) {
			return false
		}
	}
	for _, a := range q.Neg {
		if i.Contains(v.Apply(a)) {
			return false
		}
	}
	return true
}
