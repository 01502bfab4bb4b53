package rel

import "testing"

func TestAbsorbNewReturnsOnlyNewTuples(t *testing.T) {
	r := NewRelation("TC", 2)
	r.Add(Tuple{1, 2})
	r.Add(Tuple{2, 3})

	o := NewRelation("Δ", 2)
	o.Add(Tuple{2, 3}) // already resident
	o.Add(Tuple{3, 4})
	o.Add(Tuple{4, 5})

	got := r.AbsorbNew(o, "ΔTC")
	if got.Name != "ΔTC" || got.Arity != 2 {
		t.Fatalf("result relation = %q/%d, want ΔTC/2", got.Name, got.Arity)
	}
	if got.Len() != 2 || !got.Contains(Tuple{3, 4}) || !got.Contains(Tuple{4, 5}) {
		t.Fatalf("new tuples = %v, want {(3,4),(4,5)}", got.Tuples())
	}
	if r.Len() != 4 {
		t.Fatalf("resident has %d tuples after absorb, want 4", r.Len())
	}
	for _, tu := range o.Tuples() {
		if !r.Contains(tu) {
			t.Fatalf("resident missing absorbed tuple %v", tu)
		}
	}
}

func TestAbsorbNewEmptyAndNil(t *testing.T) {
	r := NewRelation("R", 2)
	r.Add(Tuple{1, 2})
	if got := r.AbsorbNew(nil, "Δ"); got.Len() != 0 || got.Arity != 2 {
		t.Fatalf("AbsorbNew(nil) = %v", got)
	}
	if got := r.AbsorbNew(NewRelation("Δ", 2), "Δ"); got.Len() != 0 {
		t.Fatalf("AbsorbNew(empty) returned %d tuples", got.Len())
	}
	if r.Len() != 1 {
		t.Fatalf("resident mutated by empty absorb: %d tuples", r.Len())
	}
}

// TestAbsorbNewSurvivesTombstones: AbsorbNew reads its argument by
// stored index, reusing the hashes its table caches. The argument here
// was filled half by vouched appends and half by Adds that built its
// table and rehashed it as it grew, so the cached hashes must still sit
// beside the tuples they belong to, and exactly the new tuples come
// back, in the argument's order.
func TestAbsorbNewSurvivesTombstones(t *testing.T) {
	o := NewRelation("Δ", 1)
	for v := 0; v < 8; v++ {
		o.AddDistinct(Tuple{Value(v)})
	}
	for v := 8; v < 40; v++ {
		o.Add(Tuple{Value(v)})
	}

	r := NewRelation("R", 1)
	for v := 0; v < 40; v += 3 {
		r.Add(Tuple{Value(v)})
	}
	got := r.AbsorbNew(o, "new")
	var want []Tuple
	for v := 0; v < 40; v++ {
		if v%3 != 0 {
			want = append(want, Tuple{Value(v)})
		}
	}
	if !equalLists(eachTuples(got), want) || r.Len() != 40 {
		t.Fatalf("new = %v, resident %d; want %v and 40", eachTuples(got), r.Len(), want)
	}
	for v := 0; v < 40; v++ {
		if !r.Contains(Tuple{Value(v)}) {
			t.Fatalf("resident lacks %d after the absorb", v)
		}
	}
}

func TestFoldDelta(t *testing.T) {
	i := NewInstance()
	i.Add(NewFact("TC", 1, 2))
	i.Add(NewFact("ΔC", 1, 2)) // duplicate of resident
	i.Add(NewFact("ΔC", 2, 3))

	newTuples := i.FoldDelta("ΔC", "TC", 2)
	if newTuples.Len() != 1 || !newTuples.Contains(Tuple{2, 3}) {
		t.Fatalf("new tuples = %v, want {(2,3)}", newTuples.Tuples())
	}
	if i.Relation("ΔC") != nil {
		t.Fatalf("delta relation still present after fold")
	}
	tc := i.Relation("TC")
	if tc.Len() != 2 || !tc.Contains(Tuple{2, 3}) {
		t.Fatalf("resident TC = %v, want {(1,2),(2,3)}", tc.Tuples())
	}
}

func TestFoldDeltaCreatesResident(t *testing.T) {
	i := NewInstance()
	i.Add(NewFact("ΔE", 7, 8))
	newTuples := i.FoldDelta("ΔE", "E", 2)
	if newTuples.Len() != 1 {
		t.Fatalf("new tuples = %v, want one", newTuples.Tuples())
	}
	e := i.Relation("E")
	if e == nil || e.Len() != 1 || e.Arity != 2 || !e.Contains(Tuple{7, 8}) {
		t.Fatalf("resident E not created correctly: %v", e)
	}
}

func TestFoldDeltaMissingDelta(t *testing.T) {
	i := NewInstance()
	got := i.FoldDelta("Δnope", "R", 3)
	if got.Len() != 0 || got.Arity != 3 || got.Name != "Δnope" {
		t.Fatalf("missing delta fold = %q/%d len %d", got.Name, got.Arity, got.Len())
	}
	if i.Relation("R") != nil {
		t.Fatalf("empty fold materialized a resident relation")
	}
}

func TestSetRelationAsBindsWithoutCopy(t *testing.T) {
	i := NewInstance()
	r := NewRelation("TC", 2)
	r.Add(Tuple{1, 2})
	i.SetRelationAs("Δ", r)
	if i.Relation("Δ") != r {
		t.Fatalf("SetRelationAs copied instead of aliasing")
	}
	if i.Relation("TC") != nil {
		t.Fatalf("SetRelationAs leaked the relation under its own name")
	}
}

func TestRemoveRelation(t *testing.T) {
	i := NewInstance()
	i.Add(NewFact("R", 1))
	got := i.RemoveRelation("R")
	if got == nil || got.Len() != 1 {
		t.Fatalf("RemoveRelation returned %v", got)
	}
	if i.Relation("R") != nil || i.RemoveRelation("R") != nil {
		t.Fatalf("relation survived removal")
	}
}
