package rel

import (
	"testing"
)

// permutedFacts returns the same fact set in two different insertion
// orders.
func permutedFacts() ([]Fact, []Fact) {
	fs := []Fact{
		NewFact("R", 3, 1), NewFact("R", 1, 2), NewFact("R", 2, 3),
		NewFact("S", 9), NewFact("S", 4), NewFact("S", 7),
		NewFact("T", 5, 5, 5), NewFact("T", 1, 0, 2),
	}
	rev := make([]Fact, len(fs))
	for i, f := range fs {
		rev[len(fs)-1-i] = f
	}
	return fs, rev
}

// TestEnumerationDeterministic pins the determinism contract of
// instance serialization: the same fact set enumerates and renders
// identically regardless of insertion order or process randomization.
func TestEnumerationDeterministic(t *testing.T) {
	fwd, rev := permutedFacts()
	i1 := FromFacts(fwd...)
	i2 := FromFacts(rev...)

	if s1, s2 := i1.String(), i2.String(); s1 != s2 {
		t.Errorf("String depends on insertion order:\n%s\n%s", s1, s2)
	}

	f1, f2 := i1.Facts(), i2.Facts()
	if len(f1) != len(f2) {
		t.Fatalf("fact counts differ: %d vs %d", len(f1), len(f2))
	}
	for k := range f1 {
		if !f1[k].Equal(f2[k]) {
			t.Errorf("Facts()[%d] differs: %v vs %v", k, f1[k], f2[k])
		}
	}
	for k := 1; k < len(f1); k++ {
		if !f1[k-1].Less(f1[k]) {
			t.Errorf("Facts() not strictly ordered at %d: %v !< %v", k, f1[k-1], f1[k])
		}
	}

	// Each must agree with Facts, element for element.
	k := 0
	i1.Each(func(f Fact) bool {
		if !f.Equal(f1[k]) {
			t.Errorf("Each order diverges from Facts at %d: %v vs %v", k, f, f1[k])
		}
		k++
		return true
	})
	if k != len(f1) {
		t.Errorf("Each visited %d facts, want %d", k, len(f1))
	}

	// Repeated enumeration of the same instance is stable too.
	again := i1.Facts()
	for k := range f1 {
		if !f1[k].Equal(again[k]) {
			t.Errorf("repeated Facts() differs at %d", k)
		}
	}
}

// TestTuplesDeterministic pins Relation.Tuples to sorted order.
func TestTuplesDeterministic(t *testing.T) {
	r := NewRelation("R", 2)
	for _, vals := range [][2]Value{{3, 1}, {1, 2}, {2, 3}, {1, 1}} {
		r.Add(Tuple{vals[0], vals[1]})
	}
	ts := r.Tuples()
	for k := 1; k < len(ts); k++ {
		if ts[k-1].Compare(ts[k]) >= 0 {
			t.Errorf("Tuples not strictly ordered at %d: %v !< %v", k, ts[k-1], ts[k])
		}
	}
}
