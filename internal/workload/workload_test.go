package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/rel"
)

func TestJoinSkewFreeShape(t *testing.T) {
	i := JoinSkewFree(100)
	if i.Relation("R").Len() != 100 || i.Relation("S").Len() != 100 {
		t.Fatalf("relation sizes wrong")
	}
	// No repeated value within any column of any relation.
	if hh := HeavyHitters(i, "R", 1, 1); len(hh) != 0 {
		t.Errorf("skew-free R has heavy hitters: %v", hh)
	}
	if hh := HeavyHitters(i, "S", 0, 1); len(hh) != 0 {
		t.Errorf("skew-free S has heavy hitters: %v", hh)
	}
	// Output size is exactly m.
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z)")
	if got := cq.Evaluate(q, i).Len(); got != 100 {
		t.Errorf("join output = %d, want 100", got)
	}
}

func TestJoinSkewedHeavyHitter(t *testing.T) {
	i := JoinSkewed(200, 0.5)
	hh := HeavyHitters(i, "R", 1, 50)
	if len(hh) != 1 {
		t.Fatalf("heavy hitters = %v, want exactly one", hh)
	}
	// The heavy value appears in ~half the tuples of each relation.
	count := 0
	i.Relation("R").Each(func(tu rel.Tuple) bool {
		if tu[1] == hh[0] {
			count++
		}
		return true
	})
	if count != 100 {
		t.Errorf("heavy value frequency in R = %d, want 100", count)
	}
}

func TestTriangleSkewFree(t *testing.T) {
	i := TriangleSkewFree(50)
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	if got := cq.Evaluate(q, i).Len(); got != 50 {
		t.Errorf("triangles = %d, want 50", got)
	}
	for _, name := range []string{"R", "S", "T"} {
		for col := 0; col < 2; col++ {
			if hh := HeavyHitters(i, name, col, 1); len(hh) != 0 {
				t.Errorf("matching database has heavy hitters in %s col %d", name, col)
			}
		}
	}
}

func TestTriangleSkewedStillJoins(t *testing.T) {
	i := TriangleSkewed(60, 0.25)
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	out := cq.Evaluate(q, i)
	// Heavy block: 15 R-tuples share b with 15 S-tuples; triangle
	// closure via T(c,a) only holds for matching k, so exactly m
	// triangles remain... heavy tuples R(a_k,h),S(h,c_j) close only
	// when T(c_j,a_k) exists, i.e. j == k. Output stays m.
	if out.Len() != 60 {
		t.Errorf("triangles = %d, want 60", out.Len())
	}
	if hh := HeavyHitters(i, "R", 1, 10); len(hh) != 1 {
		t.Errorf("expected one heavy hitter, got %v", hh)
	}
}

func TestRandomGraphDeterministic(t *testing.T) {
	a := RandomGraph(50, 200, 7)
	b := RandomGraph(50, 200, 7)
	if !a.Equal(b) {
		t.Errorf("same seed, different graphs")
	}
	c := RandomGraph(50, 200, 8)
	if a.Equal(c) {
		t.Errorf("different seeds, same graph")
	}
	if a.Relation("E").Len() != 200 {
		t.Errorf("edge count = %d", a.Relation("E").Len())
	}
	a.Relation("E").Each(func(tu rel.Tuple) bool {
		if tu[0] == tu[1] {
			t.Errorf("self-loop generated")
		}
		return true
	})
}

// TestRandomGraphRefusesImpossibleM: there are n(n−1) distinct non-loop
// edges on n vertices. Asking for all of them terminates with the
// complete graph; asking for more panics, naming n and m, where the
// draw used to loop forever.
func TestRandomGraphRefusesImpossibleM(t *testing.T) {
	if got := RandomGraph(3, 6, 1).Len(); got != 6 {
		t.Errorf("RandomGraph(3, 6) has %d edges, want the complete 6", got)
	}
	for _, c := range []struct{ n, m int }{{1, 1}, {3, 7}, {2, 3}} {
		func() {
			defer func() {
				want := fmt.Sprintf("workload: RandomGraph(n = %d, m = %d): only n(n−1) distinct non-loop edges exist", c.n, c.m)
				if r := recover(); r != want {
					t.Errorf("RandomGraph(%d, %d) panicked with %v, want %q", c.n, c.m, r, want)
				}
			}()
			RandomGraph(c.n, c.m, 1)
		}()
	}
}

func TestCyclePathComponents(t *testing.T) {
	if CycleGraph(5).Relation("E").Len() != 5 {
		t.Errorf("cycle size")
	}
	if PathGraph(5).Relation("E").Len() != 5 {
		t.Errorf("path size")
	}
	comps := ComponentsGraph(4, 3)
	if comps.Len() != 12 {
		t.Errorf("components total = %d", comps.Len())
	}
	if got := len(rel.Components(comps)); got != 4 {
		t.Errorf("connected components = %d, want 4", got)
	}
}

func TestZipfSkew(t *testing.T) {
	i := Zipf("R", 2000, 100, 1.5, 3)
	if i.Relation("R").Len() != 2000 {
		t.Fatalf("size = %d", i.Relation("R").Len())
	}
	// With s=1.5 the most frequent value should far exceed uniform
	// frequency (2000/100 = 20).
	hh := HeavyHitters(i, "R", 1, 100)
	if len(hh) == 0 {
		t.Errorf("Zipf produced no heavy hitters above 5× uniform")
	}
}

func TestAcyclicChain(t *testing.T) {
	i, names := AcyclicChain(3, 100, 0.2, 1)
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		if i.Relation(n).Len() != 100 {
			t.Errorf("relation %s size = %d", n, i.Relation(n).Len())
		}
	}
	// The full chain join should produce exactly the non-dangling
	// aligned tuples: each relation keeps 80 joining tuples that align
	// by construction.
	d := rel.NewDict()
	q := cq.MustParse(d, "H(a, b, c, dd) :- R0(a, b), R1(b, c), R2(c, dd)")
	out := cq.Evaluate(q, i)
	if out.Len() != 80 {
		t.Errorf("chain join output = %d, want 80", out.Len())
	}
}

func TestHeavyHittersMissingRelation(t *testing.T) {
	if got := HeavyHitters(rel.NewInstance(), "R", 0, 1); got != nil {
		t.Errorf("missing relation gave %v", got)
	}
}

// The reference generators build each instance fact by fact with Add,
// the way the generators did before they appended. Each generator must
// produce the same instance in the same arena order, so the same bytes.

func refJoinSkewFree(m int) *rel.Instance {
	i := rel.NewInstance()
	for k := 0; k < m; k++ {
		a, b, c := base(0, 0)+rel.Value(k), base(0, 1)+rel.Value(k), base(0, 2)+rel.Value(k)
		i.Add(rel.NewFact("R", a, b))
		i.Add(rel.NewFact("S", b, c))
	}
	return i
}

func refJoinSkewed(m int, heavyFrac float64) *rel.Instance {
	i := rel.NewInstance()
	heavy := base(0, 1)
	nHeavy := int(float64(m) * heavyFrac)
	for k := 0; k < m; k++ {
		a, c, b := base(0, 0)+rel.Value(k), base(0, 2)+rel.Value(k), heavy
		if k >= nHeavy {
			b = base(0, 1) + rel.Value(k+1)
		}
		i.Add(rel.NewFact("R", a, b))
		i.Add(rel.NewFact("S", b, c))
	}
	return i
}

func refTriangleSkewFree(m int) *rel.Instance {
	i := rel.NewInstance()
	for k := 0; k < m; k++ {
		a, b, c := base(1, 0)+rel.Value(k), base(1, 1)+rel.Value(k), base(1, 2)+rel.Value(k)
		i.Add(rel.NewFact("R", a, b))
		i.Add(rel.NewFact("S", b, c))
		i.Add(rel.NewFact("T", c, a))
	}
	return i
}

func refTriangleSkewed(m int, heavyFrac float64) *rel.Instance {
	i := rel.NewInstance()
	heavy := base(1, 1)
	nHeavy := int(float64(m) * heavyFrac)
	for k := 0; k < m; k++ {
		a, c, b := base(1, 0)+rel.Value(k), base(1, 2)+rel.Value(k), heavy
		if k >= nHeavy {
			b = base(1, 1) + rel.Value(k+1)
		}
		i.Add(rel.NewFact("R", a, b))
		i.Add(rel.NewFact("S", b, c))
		i.Add(rel.NewFact("T", c, a))
	}
	return i
}

func refCycleGraph(n int) *rel.Instance {
	i := rel.NewInstance()
	for k := 0; k < n; k++ {
		i.Add(rel.NewFact("E", rel.Value(k), rel.Value((k+1)%n)))
	}
	return i
}

func refPathGraph(n int) *rel.Instance {
	i := rel.NewInstance()
	for k := 0; k < n; k++ {
		i.Add(rel.NewFact("E", rel.Value(k), rel.Value(k+1)))
	}
	return i
}

func refComponentsGraph(k, size int) *rel.Instance {
	i := rel.NewInstance()
	for comp := 0; comp < k; comp++ {
		off := rel.Value(comp * size)
		for v := 0; v < size; v++ {
			i.Add(rel.NewFact("E", off+rel.Value(v), off+rel.Value((v+1)%size)))
		}
	}
	return i
}

func refZipf(name string, m, n int, s float64, seed int64) *rel.Instance {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, s, 1, uint64(n-1))
	i := rel.NewInstance()
	for k := 0; k < m; k++ {
		i.Add(rel.NewFact(name, base(2, 0)+rel.Value(k), base(2, 1)+rel.Value(z.Uint64())))
	}
	return i
}

func refAcyclicChain(k, m int, dangling float64, seed int64) *rel.Instance {
	r := rand.New(rand.NewSource(seed))
	i := rel.NewInstance()
	nDangle := int(float64(m) * dangling)
	for rIdx := 0; rIdx < k; rIdx++ {
		name := "R" + strconv.Itoa(rIdx)
		for t := 0; t < m; t++ {
			left, right := base(3+rIdx, 0)+rel.Value(t), base(3+rIdx+1, 0)+rel.Value(t)
			if t < nDangle {
				right = base(3+rIdx+1, 0) + rel.Value(m+1+r.Intn(m))
			}
			i.Add(rel.NewFact(name, left, right))
		}
	}
	return i
}

// TestGeneratorsMatchAddReference: every generator that appends builds
// exactly its Add-built reference — Equal, and EncodeInstance
// byte-identical, which pins the arena order — for m ∈ {0, 1, 2, 1000}
// and skew ∈ {0.1, 0.5, 1, 1.5} (Zipf's exponent must exceed 1, so its
// skews are 1 + each). A generator asked for no tuples creates no
// relation. An Add of a generated fact builds the table over the
// appended tuples, which checks they are distinct, and reports the fact
// present.
func TestGeneratorsMatchAddReference(t *testing.T) {
	type pair struct {
		name     string
		got, ref func() *rel.Instance
	}
	var cases []pair
	for _, m := range []int{-1, 0, 1, 2, 1000} {
		cases = append(cases,
			pair{fmt.Sprintf("JoinSkewFree(%d)", m), func() *rel.Instance { return JoinSkewFree(m) }, func() *rel.Instance { return refJoinSkewFree(m) }},
			pair{fmt.Sprintf("TriangleSkewFree(%d)", m), func() *rel.Instance { return TriangleSkewFree(m) }, func() *rel.Instance { return refTriangleSkewFree(m) }},
			pair{fmt.Sprintf("CycleGraph(%d)", m), func() *rel.Instance { return CycleGraph(m) }, func() *rel.Instance { return refCycleGraph(m) }},
			pair{fmt.Sprintf("PathGraph(%d)", m), func() *rel.Instance { return PathGraph(m) }, func() *rel.Instance { return refPathGraph(m) }},
			pair{fmt.Sprintf("ComponentsGraph(3, %d)", m), func() *rel.Instance { return ComponentsGraph(3, m) }, func() *rel.Instance { return refComponentsGraph(3, m) }},
			pair{fmt.Sprintf("ComponentsGraph(%d, 3)", m), func() *rel.Instance { return ComponentsGraph(m, 3) }, func() *rel.Instance { return refComponentsGraph(m, 3) }},
		)
		for _, skew := range []float64{0.1, 0.5, 1, 1.5} {
			cases = append(cases,
				pair{fmt.Sprintf("JoinSkewed(%d, %v)", m, skew), func() *rel.Instance { return JoinSkewed(m, skew) }, func() *rel.Instance { return refJoinSkewed(m, skew) }},
				pair{fmt.Sprintf("TriangleSkewed(%d, %v)", m, skew), func() *rel.Instance { return TriangleSkewed(m, skew) }, func() *rel.Instance { return refTriangleSkewed(m, skew) }},
				pair{fmt.Sprintf("Zipf(%d, %v)", m, 1+skew), func() *rel.Instance { return Zipf("Z", m, 50, 1+skew, 5) }, func() *rel.Instance { return refZipf("Z", m, 50, 1+skew, 5) }},
				pair{fmt.Sprintf("AcyclicChain(3, %d, %v)", m, skew), func() *rel.Instance { i, _ := AcyclicChain(3, m, skew, 5); return i }, func() *rel.Instance { return refAcyclicChain(3, m, skew, 5) }},
			)
		}
	}
	for _, c := range cases {
		got, ref := c.got(), c.ref()
		if !got.Equal(ref) || !bytes.Equal(rel.EncodeInstance(got), rel.EncodeInstance(ref)) {
			t.Errorf("%s differs from its Add-built reference", c.name)
			continue
		}
		for _, name := range []string{"R", "S", "T", "E", "Z", "R0", "R1", "R2"} {
			if ref.Len() == 0 && got.Relation(name) != nil {
				t.Errorf("%s generated no tuples but created relation %s", c.name, name)
			}
		}
		for _, f := range ref.Facts() {
			if got.Add(f) {
				t.Errorf("%s: Add of generated %v reported it new", c.name, f)
			}
		}
	}
}

// TestZipfRefusesUndrawableSkew: rand.NewZipf has no distribution for
// s ≤ 1 or fewer than two values and returns nil, on which drawing
// used to die with the runtime's "rand: nil Zipf"; Zipf panics first,
// naming s and n.
func TestZipfRefusesUndrawableSkew(t *testing.T) {
	for _, c := range []struct {
		s float64
		n int
	}{{1, 50}, {0.5, 50}, {-2, 50}, {1.5, 1}, {1.5, 0}} {
		func() {
			defer func() {
				want := fmt.Sprintf("workload: Zipf(s = %v, n = %d): needs s > 1 and n ≥ 2", c.s, c.n)
				if r := recover(); r != want {
					t.Errorf("Zipf(s = %v, n = %d) panicked with %v, want %q", c.s, c.n, r, want)
				}
			}()
			Zipf("Z", 10, c.n, c.s, 1)
		}()
	}
}
