package cq

import (
	"strings"
	"testing"

	"mpclogic/internal/rel"
)

func TestContainedBasics(t *testing.T) {
	d := rel.NewDict()
	// R(x,x) result ⊆ R(x,y) result (specialization ⊆ generalization).
	spec := MustParse(d, "H(x) :- R(x, x)")
	gen := MustParse(d, "H(x) :- R(x, y)")
	if got, _ := Contained(spec, gen); !got {
		t.Errorf("R(x,x) ⊆ R(x,y) expected")
	}
	if got, _ := Contained(gen, spec); got {
		t.Errorf("R(x,y) ⊆ R(x,x) not expected")
	}
}

// Figure 1(b) of the paper: containment among Q1–Q4 of Example 4.11.
// Q1: H() :- S(x), R(x,x), T(x).     Q2: H() :- R(x,x), T(x).
// Q3: H() :- S(x), R(x,y), T(y).     Q4: H() :- R(x,y), T(y).
func TestFigure1Containment(t *testing.T) {
	d := rel.NewDict()
	q1 := MustParse(d, "H() :- S(x), R(x, x), T(x)")
	q2 := MustParse(d, "H() :- R(x, x), T(x)")
	q3 := MustParse(d, "H() :- S(x), R(x, y), T(y)")
	q4 := MustParse(d, "H() :- R(x, y), T(y)")
	qs := []*CQ{q1, q2, q3, q4}

	// want[i][j] == Qi ⊆ Qj, per Figure 1(b): Q1 ⊆ Q2 ⊆ Q4, Q1 ⊆ Q3 ⊆ Q4.
	want := [4][4]bool{
		{true, true, true, true},
		{false, true, false, true},
		{false, false, true, true},
		{false, false, false, true},
	}
	for i, qi := range qs {
		for j, qj := range qs {
			got, err := Contained(qi, qj)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i][j] {
				t.Errorf("Q%d ⊆ Q%d: got %v, want %v", i+1, j+1, got, want[i][j])
			}
		}
	}
}

func TestEquivalent(t *testing.T) {
	d := rel.NewDict()
	a := MustParse(d, "H(x) :- R(x, y), R(x, z)")
	b := MustParse(d, "H(x) :- R(x, y)")
	eq, err := Equivalent(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("redundant-atom query not equivalent to its core")
	}
	c := MustParse(d, "H(x) :- R(y, x)")
	if eq, _ := Equivalent(b, c); eq {
		t.Errorf("direction-flipped query reported equivalent")
	}
}

func TestContainedDifferentHeads(t *testing.T) {
	d := rel.NewDict()
	a := MustParse(d, "H(x, y) :- R(x, y)")
	b := MustParse(d, "H(x) :- R(x, y)")
	if got, _ := Contained(a, b); got {
		t.Errorf("arity-mismatched containment accepted")
	}
}

func TestContainedRejectsExtensions(t *testing.T) {
	d := rel.NewDict()
	a := MustParse(d, "H(x) :- R(x, y), x != y")
	b := MustParse(d, "H(x) :- R(x, y)")
	if _, err := Contained(a, b); err == nil {
		t.Errorf("diseq accepted by Contained")
	}
	c := MustParse(d, "H(x) :- R(x, y), not S(x)")
	if _, err := Contained(c, b); err == nil {
		t.Errorf("negation accepted by Contained")
	}
}

func TestContainedWithConstants(t *testing.T) {
	d := rel.NewDict()
	a := MustParse(d, "H(x) :- R(x, 'c')")
	b := MustParse(d, "H(x) :- R(x, y)")
	if got, _ := Contained(a, b); !got {
		t.Errorf("constant specialization should be contained")
	}
	if got, _ := Contained(b, a); got {
		t.Errorf("generalization contained in constant query")
	}
}

func TestHomomorphismTo(t *testing.T) {
	d := rel.NewDict()
	gen := MustParse(d, "H(x) :- R(x, y)")
	spec := MustParse(d, "H(x) :- R(x, x)")
	// hom gen→spec exists (y↦x), so spec ⊆ gen.
	if got, _ := HomomorphismTo(gen, spec); !got {
		t.Errorf("hom gen→spec expected")
	}
	if got, _ := HomomorphismTo(spec, gen); got {
		t.Errorf("hom spec→gen not expected")
	}
}

func TestUCQContained(t *testing.T) {
	d := rel.NewDict()
	u1 := MustParseUCQ(d, "H(x) :- R(x, x)")
	u2 := MustParseUCQ(d, "H(x) :- R(x, y); H(x) :- S(x)")
	got, err := UCQContained(u1, u2)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Errorf("single disjunct not contained in covering union")
	}
	// The union is not contained in its single disjunct.
	got, err = UCQContained(u2, u1)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Errorf("union contained in strict disjunct")
	}
	// A union can be contained in another union without per-disjunct
	// pairing only in degenerate ways; check the simple pairing case.
	u3 := MustParseUCQ(d, "H(x) :- S(x); H(x) :- R(x, y)")
	got, err = UCQContained(u2, u3)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Errorf("permuted union not contained")
	}
}

func TestContainedNegBounded(t *testing.T) {
	d := rel.NewDict()
	// Q: R(x,y) ∧ ¬S(x)  vs  Q′: R(x,y): Q ⊆ Q′ (dropping negation
	// relaxes), Q′ ⊄ Q (witness has S(x)).
	q := MustParse(d, "H(x) :- R(x, y), not S(x)")
	qp := MustParse(d, "H(x) :- R(x, y)")
	ok, _, err := ContainedNegBounded(q, qp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("¬-restricted query should be contained in relaxation")
	}
	ok, witness, err := ContainedNegBounded(qp, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("relaxation contained in ¬-restricted query")
	}
	if witness == nil {
		t.Fatalf("no witness returned")
	}
	// Verify the witness really is a counterexample.
	qi := Output(qp, witness)
	qpi := Output(q, witness)
	if qi.SubsetOf(qpi) {
		t.Errorf("witness is not a counterexample: %v", witness)
	}
}

// TestUnionSchemaConflictIsDeterministic: R and S both conflict across
// the two queries; the error must name the first conflicting atom, R,
// on every call rather than whichever relation map order visits first.
func TestUnionSchemaConflictIsDeterministic(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "Q() :- R(x,y), S(y,x)")
	qp := MustParse(d, "Q() :- R(x,y,z), S(y,x,z)")
	var first string
	for i := 0; i < 200; i++ {
		_, _, err := ContainedNegBounded(q, qp, 1)
		if err == nil {
			t.Fatal("conflicting arities accepted")
		}
		if i == 0 {
			first = err.Error()
			if !strings.Contains(first, "relation R ") {
				t.Fatalf("error %q does not name R, the first conflicting atom", first)
			}
		} else if err.Error() != first {
			t.Fatalf("call %d: error %q, first call said %q", i, err, first)
		}
	}
}

func TestContainedNegBoundedSpaceGuard(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x) :- R(x, x, x)")
	// Arity-3 relation over 4 values = 64 candidate facts > guard.
	if _, _, err := ContainedNegBounded(q, q, 4); err == nil {
		t.Errorf("oversized instance space accepted")
	}
}

func TestEachInstanceCounts(t *testing.T) {
	s := rel.NewSchema(map[string]int{"R": 1})
	n := 0
	err := EachInstance(s, []rel.Value{0, 1}, func(i *rel.Instance) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 { // subsets of {R(0), R(1)}
		t.Errorf("enumerated %d instances, want 4", n)
	}
}
