package rel

import (
	"fmt"
	"testing"
)

func TestDictInterning(t *testing.T) {
	d := NewDict()
	a := d.Value("a")
	b := d.Value("b")
	if a == b {
		t.Fatalf("distinct names interned to same value")
	}
	if got := d.Value("a"); got != a {
		t.Errorf("re-interning a: got %v want %v", got, a)
	}
	if d.Name(a) != "a" || d.Name(b) != "b" {
		t.Errorf("name round-trip failed")
	}
	if _, ok := d.Lookup("zz"); ok {
		t.Errorf("Lookup of unknown name succeeded")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

func TestDictNameOfUnknown(t *testing.T) {
	d := NewDict()
	if got := d.Name(Value(-7)); got != "#-7" {
		t.Errorf("Name(-7) = %q", got)
	}
}

func TestValueSetOps(t *testing.T) {
	s := NewValueSet(1, 2, 3)
	u := NewValueSet(3, 4)
	if !s.Intersects(u) || !u.Intersects(s) {
		t.Errorf("Intersects false for overlapping sets")
	}
	if s.Intersects(NewValueSet(9)) {
		t.Errorf("Intersects true for disjoint sets")
	}
	if !NewValueSet(1, 2).SubsetOf(s) {
		t.Errorf("SubsetOf false for subset")
	}
	if s.SubsetOf(u) {
		t.Errorf("SubsetOf true for non-subset")
	}
	un := s.Union(u)
	if len(un) != 4 {
		t.Errorf("union size = %d, want 4", len(un))
	}
	sorted := un.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			t.Errorf("Sorted not strictly increasing: %v", sorted)
		}
	}
}

func TestTupleKeyInjective(t *testing.T) {
	// Classic string-concat collision check: (1,23) vs (12,3) etc.
	seen := map[string]Tuple{}
	for a := Value(0); a < 40; a++ {
		for b := Value(0); b < 40; b++ {
			tu := Tuple{a, b}
			k := tu.Key()
			if prev, ok := seen[k]; ok {
				t.Fatalf("key collision between %v and %v", prev, tu)
			}
			seen[k] = tu
		}
	}
}

func TestTupleOps(t *testing.T) {
	tu := Tuple{5, 6, 7}
	if !tu.Equal(Tuple{5, 6, 7}) || tu.Equal(Tuple{5, 6}) || tu.Equal(Tuple{5, 6, 8}) {
		t.Errorf("Equal misbehaves")
	}
	c := tu.Clone()
	c[0] = 99
	if tu[0] == 99 {
		t.Errorf("Clone aliases original")
	}
	p := tu.Project([]int{2, 0})
	if !p.Equal(Tuple{7, 5}) {
		t.Errorf("Project = %v", p)
	}
	cat := Tuple{1}.Concat(Tuple{2, 3})
	if !cat.Equal(Tuple{1, 2, 3}) {
		t.Errorf("Concat = %v", cat)
	}
	if (Tuple{1, 2}).Compare(Tuple{1, 3}) >= 0 || (Tuple{1, 3}).Compare(Tuple{1, 2}) < 0 {
		t.Errorf("Compare misordered")
	}
	if (Tuple{1}).Compare(Tuple{1, 0}) >= 0 {
		t.Errorf("shorter tuple should sort first")
	}
	if got := tu.ADom(); len(got) != 3 || !got.Contains(5) {
		t.Errorf("ADom = %v", got)
	}
}

func TestFactBasics(t *testing.T) {
	f := NewFact("R", 1, 2)
	g := NewFact("R", 1, 2)
	h := NewFact("S", 1, 2)
	if !f.Equal(g) || f.Equal(h) {
		t.Errorf("fact equality misbehaves")
	}
	if f.Key() == h.Key() {
		t.Errorf("distinct relations share a key")
	}
	if NewFact("R", 1).Key() == NewFact("R", 0, 1).Key() {
		t.Errorf("arity not separated in key")
	}
	if !f.Less(h) {
		t.Errorf("R fact should sort before S fact")
	}
	d := NewDict()
	pf := MustFact(d, "Edge(a, b)")
	if pf.Rel != "Edge" || len(pf.Tuple) != 2 {
		t.Errorf("parsed fact %v", pf)
	}
	if got := pf.StringWith(d); got != "Edge(a,b)" {
		t.Errorf("StringWith = %q", got)
	}
}

func TestParseFactErrors(t *testing.T) {
	d := NewDict()
	for _, bad := range []string{"", "R", "R(", "(a)", "R(a,)", "R(,a)", "Ra)"} {
		if _, err := ParseFact(d, bad); err == nil {
			t.Errorf("ParseFact(%q) succeeded, want error", bad)
		}
	}
	f, err := ParseFact(d, "Ok()")
	if err != nil || f.Rel != "Ok" || len(f.Tuple) != 0 {
		t.Errorf("nullary fact parse: %v, %v", f, err)
	}
}

func TestSchema(t *testing.T) {
	s := Schema{"R": 2, "S": 1}
	if err := s.Validate(NewFact("R", 1, 2)); err != nil {
		t.Errorf("valid fact rejected: %v", err)
	}
	if err := s.Validate(NewFact("R", 1)); err == nil {
		t.Errorf("arity violation accepted")
	}
	if err := s.Validate(NewFact("T", 1)); err == nil {
		t.Errorf("unknown relation accepted")
	}
	if err := s.Declare("R", 3); err == nil {
		t.Errorf("conflicting redeclare accepted")
	}
	if err := s.Declare("R", 2); err != nil {
		t.Errorf("consistent redeclare rejected: %v", err)
	}
	if got := s.Relations(); len(got) != 2 || got[0] != "R" || got[1] != "S" {
		t.Errorf("Relations = %v", got)
	}
	if s.MaxArity() != 2 {
		t.Errorf("MaxArity = %d", s.MaxArity())
	}
}

func TestSchemaAllFacts(t *testing.T) {
	s := Schema{"R": 2, "S": 1}
	u := []Value{10, 20}
	fs := s.AllFacts(u)
	// 2^2 R-facts + 2 S-facts.
	if len(fs) != 6 {
		t.Fatalf("AllFacts count = %d, want 6", len(fs))
	}
	seen := map[string]bool{}
	for _, f := range fs {
		if seen[f.Key()] {
			t.Fatalf("duplicate fact %v", f)
		}
		seen[f.Key()] = true
	}
	if !seen[NewFact("R", 20, 10).Key()] || !seen[NewFact("S", 20).Key()] {
		t.Errorf("expected facts missing")
	}
	// Nullary relation contributes exactly one fact even on empty universe.
	s2 := Schema{"B": 0, "R": 1}
	fs2 := s2.AllFacts(nil)
	if len(fs2) != 1 || fs2[0].Rel != "B" {
		t.Errorf("AllFacts with empty universe = %v", fs2)
	}
}

func TestRelationSetSemantics(t *testing.T) {
	r := NewRelation("R", 2)
	if !r.Add(Tuple{1, 2}) {
		t.Errorf("first Add returned false")
	}
	if r.Add(Tuple{1, 2}) {
		t.Errorf("duplicate Add returned true")
	}
	if r.Len() != 1 || !r.Contains(Tuple{1, 2}) {
		t.Errorf("relation state wrong after adds")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("arity-mismatched Add did not panic")
		}
	}()
	r.Add(Tuple{1})
}

func TestInstanceBasics(t *testing.T) {
	d := NewDict()
	i := MustInstance(d, "R(a,b)", "R(b,a)", "S(a)")
	if i.Len() != 3 {
		t.Fatalf("Len = %d", i.Len())
	}
	if !i.Contains(MustFact(d, "R(a,b)")) || i.Contains(MustFact(d, "R(a,a)")) {
		t.Errorf("Contains misbehaves")
	}
	j := i.Clone()
	j.Add(MustFact(d, "T(c)"))
	if i.Contains(MustFact(d, "T(c)")) {
		t.Errorf("Clone aliases original")
	}
	if !i.SubsetOf(j) || j.SubsetOf(i) {
		t.Errorf("SubsetOf misbehaves")
	}
	if i.Equal(j) || !i.Equal(i.Clone()) {
		t.Errorf("Equal misbehaves")
	}
	u := i.Union(j)
	if u.Len() != 4 {
		t.Errorf("Union Len = %d", u.Len())
	}
	if got := len(i.ADom()); got != 2 {
		t.Errorf("ADom size = %d, want 2", got)
	}
	names := j.RelationNames()
	if len(names) != 3 || names[0] != "R" || names[2] != "T" {
		t.Errorf("RelationNames = %v", names)
	}
}

func TestInstanceInduced(t *testing.T) {
	d := NewDict()
	i := MustInstance(d, "E(a,b)", "E(b,c)", "E(c,a)", "E(x,y)")
	c := NewValueSet(d.Value("a"), d.Value("b"), d.Value("c"))
	got := i.Induced(c)
	if got.Len() != 3 || got.Contains(MustFact(d, "E(x,y)")) {
		t.Errorf("Induced = %v", got.StringWith(d))
	}
}

func TestInstanceString(t *testing.T) {
	d := NewDict()
	i := MustInstance(d, "S(b)", "R(a)")
	if got := i.StringWith(d); got != "{R(a), S(b)}" {
		t.Errorf("StringWith = %q", got)
	}
	if MustInstance(d).StringWith(d) != "{}" {
		t.Errorf("empty instance rendering")
	}
}

func TestComponents(t *testing.T) {
	d := NewDict()
	i := MustInstance(d,
		"E(a,b)", "E(b,c)", // component 1
		"E(x,y)", // component 2
		"S(z)",   // component 3
		"Flag()", // zero-arity: own component
	)
	comps := Components(i)
	if len(comps) != 4 {
		t.Fatalf("got %d components, want 4: %v", len(comps), comps)
	}
	total := 0
	for _, c := range comps {
		total += c.Len()
		// Components must be pairwise domain-disjoint.
		for _, o := range comps {
			if c == o {
				continue
			}
			if c.ADom().Intersects(o.ADom()) {
				t.Errorf("components share domain values: %v vs %v", c, o)
			}
		}
	}
	if total != i.Len() {
		t.Errorf("components lose facts: %d vs %d", total, i.Len())
	}
}

func TestComponentsBridging(t *testing.T) {
	d := NewDict()
	// T(a, q) bridges the {a,b} and {q,r} clusters into one component.
	i := MustInstance(d, "E(a,b)", "E(q,r)", "T(a,q)")
	comps := Components(i)
	if len(comps) != 1 {
		t.Fatalf("got %d components, want 1", len(comps))
	}
	if comps[0].Len() != 3 {
		t.Errorf("component has %d facts, want 3", comps[0].Len())
	}
}

func TestAlgebraSelectProject(t *testing.T) {
	r := NewRelation("R", 2)
	r.Add(Tuple{1, 1})
	r.Add(Tuple{1, 2})
	r.Add(Tuple{2, 2})
	sel := Select(r, func(t Tuple) bool { return t[0] == t[1] })
	if sel.Len() != 2 {
		t.Errorf("Select len = %d", sel.Len())
	}
	pr := Project(r, "P", []int{0})
	if pr.Len() != 2 || !pr.Contains(Tuple{1}) || !pr.Contains(Tuple{2}) {
		t.Errorf("Project wrong: %v", pr.Tuples())
	}
}

func TestAlgebraJoin(t *testing.T) {
	r := NewRelation("R", 2)
	s := NewRelation("S", 2)
	r.Add(Tuple{1, 10})
	r.Add(Tuple{2, 20})
	s.Add(Tuple{10, 100})
	s.Add(Tuple{10, 101})
	s.Add(Tuple{30, 300})
	j := HashJoin("J", r, s, []int{1}, []int{0})
	if j.Arity != 4 || j.Len() != 2 {
		t.Fatalf("join arity/len = %d/%d", j.Arity, j.Len())
	}
	if !j.Contains(Tuple{1, 10, 10, 100}) || !j.Contains(Tuple{1, 10, 10, 101}) {
		t.Errorf("join results wrong: %v", j.Tuples())
	}
	// Force the swapped build side and check column order is preserved.
	big := NewRelation("B", 1)
	for v := Value(0); v < 10; v++ {
		big.Add(Tuple{v})
	}
	small := NewRelation("Sm", 2)
	small.Add(Tuple{3, 33})
	j2 := HashJoin("J2", big, small, []int{0}, []int{0})
	if j2.Len() != 1 || !j2.Contains(Tuple{3, 3, 33}) {
		t.Errorf("swapped join wrong: %v", j2.Tuples())
	}
}

func TestAlgebraSemiAntiJoin(t *testing.T) {
	r := NewRelation("R", 2)
	s := NewRelation("S", 1)
	r.Add(Tuple{1, 10})
	r.Add(Tuple{2, 20})
	s.Add(Tuple{10})
	semi := SemiJoin(r, s, []int{1}, []int{0})
	if semi.Len() != 1 || !semi.Contains(Tuple{1, 10}) {
		t.Errorf("semijoin wrong: %v", semi.Tuples())
	}
	anti := AntiJoin(r, s, []int{1}, []int{0})
	if anti.Len() != 1 || !anti.Contains(Tuple{2, 20}) {
		t.Errorf("antijoin wrong: %v", anti.Tuples())
	}
}

func TestAlgebraUnionDiffIntersect(t *testing.T) {
	a := NewRelation("A", 1)
	b := NewRelation("B", 1)
	a.Add(Tuple{1})
	a.Add(Tuple{2})
	b.Add(Tuple{2})
	b.Add(Tuple{3})
	if got := Union("U", a, b); got.Len() != 3 {
		t.Errorf("union len = %d", got.Len())
	}
	if got := Diff("D", a, b); got.Len() != 1 || !got.Contains(Tuple{1}) {
		t.Errorf("diff wrong: %v", got.Tuples())
	}
	if got := Intersect("I", a, b); got.Len() != 1 || !got.Contains(Tuple{2}) {
		t.Errorf("intersect wrong: %v", got.Tuples())
	}
}

func TestAlgebraProduct(t *testing.T) {
	a := NewRelation("A", 1)
	b := NewRelation("B", 1)
	a.Add(Tuple{1})
	a.Add(Tuple{2})
	b.Add(Tuple{7})
	p := HashJoin("P", a, b, nil, nil)
	if p.Len() != 2 || p.Arity != 2 || !p.Contains(Tuple{1, 7}) {
		t.Errorf("product wrong: %v", p.Tuples())
	}
}

func TestUnionWithArityGuard(t *testing.T) {
	a := NewRelation("A", 1)
	b := NewRelation("A", 2)
	b.Add(Tuple{1, 2})
	defer func() {
		if recover() == nil {
			t.Errorf("arity-mismatched UnionWith did not panic")
		}
	}()
	a.UnionWith(b)
}

// Diff returns l ∖ r; arities must match.
func Diff(name string, l, r *Relation) *Relation {
	if l.Arity != r.Arity {
		panic("rel: diff arity mismatch")
	}
	out := NewRelation(name, l.Arity)
	l.Each(func(t Tuple) bool {
		if !r.Contains(t) {
			out.Add(t)
		}
		return true
	})
	return out
}

// Intersect returns l ∩ r; arities must match.
func Intersect(name string, l, r *Relation) *Relation {
	if l.Arity != r.Arity {
		panic("rel: intersect arity mismatch")
	}
	small, big := l, r
	if big.Len() < small.Len() {
		small, big = big, small
	}
	out := NewRelation(name, l.Arity)
	small.Each(func(t Tuple) bool {
		if big.Contains(t) {
			out.Add(t)
		}
		return true
	})
	return out
}

// Concat returns the concatenation of t and u as a fresh tuple.
func (t Tuple) Concat(u Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(u))
	out = append(out, t...)
	out = append(out, u...)
	return out
}

// Validate checks that f conforms to the schema.
func (s Schema) Validate(f Fact) error {
	a, ok := s[f.Rel]
	if !ok {
		return fmt.Errorf("rel: unknown relation %s", f.Rel)
	}
	if a != len(f.Tuple) {
		return fmt.Errorf("rel: relation %s has arity %d, fact has %d values", f.Rel, a, len(f.Tuple))
	}
	return nil
}

// Union returns l ∪ r; arities must match.
func Union(name string, l, r *Relation) *Relation {
	if l.Arity != r.Arity {
		panic("rel: union arity mismatch")
	}
	out := NewRelation(name, l.Arity)
	out.UnionWith(l)
	out.UnionWith(r)
	return out
}

// TestSortFactsIsFactsOrder: SortFacts orders any permutation of an
// instance's facts as Facts enumerates them, by (relation, tuple).
func TestSortFactsIsFactsOrder(t *testing.T) {
	inst := FromFacts(NewFact("S", 2), NewFact("R", 3, 1), NewFact("R", 1, 9), NewFact("S", 0), NewFact("R", 1, 2))
	want := inst.Facts()
	fs := []Fact{want[4], want[1], want[3], want[0], want[2]}
	SortFacts(fs)
	for i := range fs {
		if !fs[i].Equal(want[i]) {
			t.Fatalf("SortFacts gave %v, want %v", fs, want)
		}
	}
}

// TestInstanceFilter: Filter keeps exactly the facts keep admits and
// leaves its receiver alone.
func TestInstanceFilter(t *testing.T) {
	inst := FromFacts(NewFact("R", 1, 2), NewFact("R", 3, 3), NewFact("S", 3))
	got := inst.Filter(func(f Fact) bool { return f.Tuple[0] == 3 })
	if want := FromFacts(NewFact("R", 3, 3), NewFact("S", 3)); !got.Equal(want) {
		t.Errorf("Filter kept %v, want %v", got, want)
	}
	if inst.Len() != 3 {
		t.Errorf("Filter changed its receiver: %v", inst)
	}
	if none := inst.Filter(func(Fact) bool { return false }); !none.IsEmpty() {
		t.Errorf("a Filter that keeps nothing kept %v", none)
	}
}

// TestFactClone: a clone is the same fact and shares no tuple storage.
func TestFactClone(t *testing.T) {
	f := NewFact("R", 1, 2)
	g := f.Clone()
	if !g.Equal(f) {
		t.Fatalf("Clone gave %v, want %v", g, f)
	}
	g.Tuple[0] = 7
	if f.Tuple[0] != 1 {
		t.Errorf("writing the clone's tuple changed the original to %v", f)
	}
}
