package workload

import (
	"fmt"
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
