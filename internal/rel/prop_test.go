package rel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomRelation draws a relation with small arity and values so that
// collisions (and therefore set semantics) are actually exercised.
func randomRelation(r *rand.Rand, name string, arity, n int) *Relation {
	out := NewRelation(name, arity)
	for i := 0; i < n; i++ {
		t := make(Tuple, arity)
		for j := range t {
			t[j] = Value(r.Intn(6))
		}
		out.Add(t)
	}
	return out
}

func TestPropTupleKeyRoundTrip(t *testing.T) {
	f := func(a, b, c int64) bool {
		t1 := Tuple{Value(a), Value(b), Value(c)}
		t2 := Tuple{Value(a), Value(b), Value(c)}
		return t1.Key() == t2.Key() && t1.Hash() == t2.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropTupleKeyDistinct(t *testing.T) {
	f := func(a, b int64) bool {
		if a == b {
			return true
		}
		return Tuple{Value(a)}.Key() != Tuple{Value(b)}.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Union is commutative, associative, idempotent on instances.
func TestPropInstanceUnionLaws(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		a := randomInstance(r)
		b := randomInstance(r)
		c := randomInstance(r)
		if !a.Union(b).Equal(b.Union(a)) {
			t.Fatalf("union not commutative")
		}
		if !a.Union(b).Union(c).Equal(a.Union(b.Union(c))) {
			t.Fatalf("union not associative")
		}
		if !a.Union(a).Equal(a) {
			t.Fatalf("union not idempotent")
		}
	}
}

func randomInstance(r *rand.Rand) *Instance {
	i := NewInstance()
	n := r.Intn(12)
	for k := 0; k < n; k++ {
		rel := []string{"R", "S"}[r.Intn(2)]
		i.Add(NewFact(rel, Value(r.Intn(5)), Value(r.Intn(5))))
	}
	return i
}

// Semijoin then antijoin partition the left side.
func TestPropSemiAntiPartition(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		l := randomRelation(r, "L", 2, r.Intn(20))
		rr := randomRelation(r, "R", 2, r.Intn(20))
		cols := []int{r.Intn(2)}
		rcols := []int{r.Intn(2)}
		semi := SemiJoin(l, rr, cols, rcols)
		anti := AntiJoin(l, rr, cols, rcols)
		if semi.Len()+anti.Len() != l.Len() {
			t.Fatalf("semi+anti != l: %d + %d != %d", semi.Len(), anti.Len(), l.Len())
		}
		u := Union("U", semi, anti)
		if !u.Equal(l) {
			t.Fatalf("semi ∪ anti != l")
		}
	}
}

// Join output projected back to the left columns is exactly the semijoin.
func TestPropJoinProjectsToSemijoin(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		l := randomRelation(r, "L", 2, r.Intn(15))
		rr := randomRelation(r, "R", 2, r.Intn(15))
		j := HashJoin("J", l, rr, []int{1}, []int{0})
		proj := Project(j, "P", []int{0, 1})
		semi := SemiJoin(l, rr, []int{1}, []int{0})
		if !proj.Equal(semi) {
			t.Fatalf("π_L(L⋈R) != L⋉R:\n%v\nvs\n%v", proj.Tuples(), semi.Tuples())
		}
	}
}

// Components are a partition and each is domain-disjoint from the rest.
func TestPropComponentsPartition(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		i := randomInstance(r)
		comps := Components(i)
		joined := NewInstance()
		for idx, c := range comps {
			if c.IsEmpty() {
				t.Fatalf("empty component")
			}
			joined.AddAll(c)
			for jdx, o := range comps {
				if idx != jdx && c.ADom().Intersects(o.ADom()) {
					t.Fatalf("components not domain-disjoint")
				}
			}
		}
		if !joined.Equal(i) {
			t.Fatalf("components do not reassemble instance")
		}
	}
}

// Induced is monotone and idempotent.
func TestPropInducedLaws(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		i := randomInstance(r)
		c := make(ValueSet)
		for v := range i.ADom() {
			if r.Intn(2) == 0 {
				c.Add(v)
			}
		}
		ind := i.Induced(c)
		if !ind.SubsetOf(i) {
			t.Fatalf("induced not a subinstance")
		}
		if !ind.Induced(c).Equal(ind) {
			t.Fatalf("induced not idempotent")
		}
		if !ind.ADom().SubsetOf(c) {
			t.Fatalf("induced adom escapes C")
		}
	}
}

func TestPropDiffUnionRestores(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		a := randomRelation(r, "A", 2, r.Intn(20))
		b := randomRelation(r, "B", 2, r.Intn(20))
		// (a ∖ b) ∪ (a ∩ b) == a
		d := Diff("D", a, b)
		in := Intersect("I", a, b)
		if !Union("U", d, in).Equal(a) {
			t.Fatalf("(a∖b) ∪ (a∩b) != a")
		}
	}
}

// lessRef is the two-way order Tuple.Less had before it was defined
// through Compare: lexicographic, a proper prefix first.
func lessRef(t, u Tuple) bool {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if t[i] != u[i] {
			return t[i] < u[i]
		}
	}
	return len(t) < len(u)
}

// Property: Compare is the three-way form of the same total order —
// on tuples of differing arity, with negative and extreme values — and
// Fact.Compare orders by relation name first.
func TestPropCompareIsTheLessOrder(t *testing.T) {
	sign := func(c int) int {
		switch {
		case c < 0:
			return -1
		case c > 0:
			return 1
		}
		return 0
	}
	mk := func(vs []int64) Tuple {
		out := make(Tuple, len(vs)%4)
		for i := range out {
			out[i] = Value(vs[i] % 3) // small domain: equal prefixes are common
			if vs[i]%7 == 0 {
				out[i] = Value(vs[i]) // and so are extremes
			}
		}
		return out
	}
	f := func(a, b []int64, ra, rb bool) bool {
		t1, t2 := mk(a), mk(b)
		want := 0
		if lessRef(t1, t2) {
			want = -1
		} else if lessRef(t2, t1) {
			want = 1
		}
		if sign(t1.Compare(t2)) != want || sign(t2.Compare(t1)) != -want {
			return false
		}
		name := map[bool]string{false: "R", true: "S"}
		f1, f2 := Fact{Rel: name[ra], Tuple: t1}, Fact{Rel: name[rb], Tuple: t2}
		if ra != rb {
			want = map[bool]int{false: -1, true: 1}[ra]
		}
		return sign(f1.Compare(f2)) == want && f1.Less(f2) == (want < 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// The append renderers against the renderings they replaced, written
// out the slow way (fmt and strings): Name/String/StringWith are now
// calls of AppendName/AppendWith, so the spec has to live here. Values
// are drawn interned and not, negative, and beyond 2^53; names hold
// bytes no renderer may touch. Appending must extend dst, prefix
// intact, and a nil dict is the raw numeric form String prints.
func TestPropAppendRenderersMatchFmt(t *testing.T) {
	d := NewDict()
	names := []string{"a", "", "b c", `q"uo\te`, "<&>", "é ", "\xff\x00", "#7"}
	d.Values(names...)
	name := func(v Value) string {
		if v >= 0 && int(v) < len(names) {
			return names[v]
		}
		return fmt.Sprintf("#%d", int64(v))
	}
	tuple := func(t Tuple, spell func(Value) string) string {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = spell(v)
		}
		return "(" + strings.Join(parts, ",") + ")"
	}
	raw := func(v Value) string { return fmt.Sprintf("%d", int64(v)) }

	r := rand.New(rand.NewSource(17))
	draw := func() Value {
		switch r.Intn(4) {
		case 0:
			return Value(r.Intn(len(names)))
		case 1:
			return -Value(r.Int63())
		case 2:
			return Value(1<<53 + r.Int63n(1<<62))
		}
		return Value(r.Intn(100000))
	}
	for trial := 0; trial < 2000; trial++ {
		tup := make(Tuple, r.Intn(5))
		for i := range tup {
			tup[i] = draw()
		}
		f := Fact{Rel: names[r.Intn(len(names))], Tuple: tup}
		prefix := names[r.Intn(len(names))]

		v := draw()
		if got, want := d.Name(v), name(v); got != want {
			t.Fatalf("Name(%d) = %q, want %q", v, got, want)
		}
		if got, want := string(d.AppendName([]byte(prefix), v)), prefix+name(v); got != want {
			t.Fatalf("AppendName(%q, %d) = %q, want %q", prefix, v, got, want)
		}
		for _, c := range []struct {
			what      string
			got, want string
		}{
			{"Tuple.AppendWith(nil buffer)", string(tup.AppendWith(nil, d)), tuple(tup, name)},
			{"Tuple.String", tup.String(), tuple(tup, raw)},
			{"Tuple.AppendWith", string(tup.AppendWith([]byte(prefix), d)), prefix + tuple(tup, name)},
			{"Tuple.AppendWith(nil dict)", string(tup.AppendWith([]byte(prefix), nil)), prefix + tuple(tup, raw)},
			{"Fact.StringWith", f.StringWith(d), f.Rel + tuple(tup, name)},
			{"Fact.String", f.String(), f.Rel + tuple(tup, raw)},
			{"Fact.AppendWith", string(f.AppendWith([]byte(prefix), d)), prefix + f.Rel + tuple(tup, name)},
			{"Fact.AppendWith(nil dict)", string(f.AppendWith([]byte(prefix), nil)), prefix + f.Rel + tuple(tup, raw)},
		} {
			if c.got != c.want {
				t.Fatalf("%s of %v = %q, want %q", c.what, f, c.got, c.want)
			}
		}
	}
}
