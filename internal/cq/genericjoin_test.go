package cq

import (
	"math/rand"
	"testing"

	"mpclogic/internal/rel"
)

func TestGenericJoinMatchesEvaluate(t *testing.T) {
	d := rel.NewDict()
	queries := []*CQ{
		MustParse(d, "H(x, y) :- R(x, y)"),
		MustParse(d, "H(x, z) :- R(x, y), S(y, z)"),
		MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)"),
		MustParse(d, "H(x, z) :- R(x, y), R(y, z), R(x, x)"),
		MustParse(d, "H(x, y) :- R(x, y), x != y"),
		MustParse(d, "H(x) :- R(x, 2), S(x, y)"),
		MustParse(d, "H() :- R(x, y), S(y, x)"),
	}
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		inst := rel.NewInstance()
		n := r.Intn(20)
		for k := 0; k < n; k++ {
			inst.Add(rel.NewFact([]string{"R", "S", "T"}[r.Intn(3)],
				rel.Value(r.Intn(5)), rel.Value(r.Intn(5))))
		}
		for _, q := range queries {
			want := Evaluate(q, inst)
			got, err := GenericJoin(q, inst)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("query %v on %v:\ngeneric %v\nbinary  %v",
					q, inst, got.Tuples(), want.Tuples())
			}
		}
	}
}

func TestGenericJoinRejectsNegation(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x) :- R(x), not S(x)")
	if _, err := GenericJoin(q, rel.NewInstance()); err == nil {
		t.Errorf("negated query accepted")
	}
}

func TestGenericJoinEmptyAtom(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x, z) :- R(x, y), S(y, z)")
	inst := rel.MustInstance(d, "R(a,b)")
	got, err := GenericJoin(q, inst)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("missing relation should give empty result")
	}
}

// The headline property: on the "fan" instance where R⋈S is quadratic
// but the triangle output is tiny, the pairwise cascade materializes
// the fan product while generic join's work stays near the output —
// checked here by result equality, with the cost shape measured in
// BenchmarkGenericJoin.
func TestGenericJoinTriangleFan(t *testing.T) {
	inst := rel.NewInstance()
	hub := rel.Value(10000)
	n := 60
	for i := 0; i < n; i++ {
		inst.Add(rel.NewFact("R", rel.Value(i), hub))
		inst.Add(rel.NewFact("S", hub, rel.Value(1000+i)))
	}
	// Only 3 closing edges.
	for i := 0; i < 3; i++ {
		inst.Add(rel.NewFact("T", rel.Value(1000+i), rel.Value(i)))
	}
	d := rel.NewDict()
	q := MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	got, err := GenericJoin(q, inst)
	if err != nil {
		t.Fatal(err)
	}
	want := Evaluate(q, inst)
	if !got.Equal(want) || got.Len() != 3 {
		t.Errorf("fan triangle: got %d want %d", got.Len(), want.Len())
	}
}
