// Package workload generates the synthetic databases the benchmark
// harness runs on. The paper's load bounds distinguish two regimes —
// skew-free data (every domain element occurs at most once per
// relation; "matching databases") and skewed data with heavy hitters —
// so the generators here produce both, deterministically from a seed.
//
// Every generator but RandomGraph builds tuples that are distinct by
// construction — each carries a column that no other tuple of its
// relation repeats — and emits them in ascending order. So it writes
// each relation with AddDistinct into storage sized up front: no table
// is built and no fact allocated, and the relation stays marked
// ascending, which lets its sorted enumeration, a deal of it and the
// decoding of the shares skip their sort and table too. A generator
// asked for no tuples creates no relations. RandomGraph draws with
// repetition, and its Add is its duplicate check.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"mpclogic/internal/rel"
)

// value blocks keep the columns of generated relations disjoint so
// that instances are easy to reason about: column k of generator block
// b draws from [base(b,k), base(b,k)+span).
const span = 1 << 24

func base(block, col int) rel.Value {
	return rel.Value((block*8 + col) * span)
}

// JoinSkewFree returns an instance over R(x,y), S(y,z) with m tuples
// per relation, no repeated values within a relation, and every R-tuple
// joining exactly one S-tuple (output size m). This is the skew-free
// regime of Example 3.1(1a) where the repartition join achieves load
// O(m/p).
func JoinSkewFree(m int) *rel.Instance {
	i := rel.NewInstance()
	if m <= 0 {
		return i
	}
	r, s := i.EnsureRelationSize("R", 2, m), i.EnsureRelationSize("S", 2, m)
	for k := 0; k < m; k++ {
		a := base(0, 0) + rel.Value(k)
		b := base(0, 1) + rel.Value(k)
		c := base(0, 2) + rel.Value(k)
		r.AddDistinct(rel.Tuple{a, b})
		s.AddDistinct(rel.Tuple{b, c})
	}
	return i
}

// JoinSkewed returns R, S with m tuples each where a fraction
// heavyFrac of the tuples of both relations carry one heavy-hitter
// join value. The repartition join must ship all heavy tuples to a
// single server, so its max load degrades toward Θ(m); the grouping
// join of Example 3.1(1b) does not.
func JoinSkewed(m int, heavyFrac float64) *rel.Instance {
	i := rel.NewInstance()
	if m <= 0 {
		return i
	}
	r, s := i.EnsureRelationSize("R", 2, m), i.EnsureRelationSize("S", 2, m)
	heavy := base(0, 1) // the heavy-hitter join value
	nHeavy := int(float64(m) * heavyFrac)
	for k := 0; k < m; k++ {
		a := base(0, 0) + rel.Value(k)
		c := base(0, 2) + rel.Value(k)
		b := heavy
		if k >= nHeavy {
			b = base(0, 1) + rel.Value(k+1) // +1 keeps clear of `heavy`
		}
		r.AddDistinct(rel.Tuple{a, b})
		s.AddDistinct(rel.Tuple{b, c})
	}
	return i
}

// TriangleSkewFree returns a matching database over R(x,y), S(y,z),
// T(z,x) with m tuples per relation forming exactly m triangles; every
// value occurs once per relation. This is the regime where HyperCube
// achieves load O(m/p^{2/3}) (Example 3.2).
func TriangleSkewFree(m int) *rel.Instance {
	i := rel.NewInstance()
	if m <= 0 {
		return i
	}
	r, s, t := i.EnsureRelationSize("R", 2, m), i.EnsureRelationSize("S", 2, m), i.EnsureRelationSize("T", 2, m)
	for k := 0; k < m; k++ {
		a := base(1, 0) + rel.Value(k)
		b := base(1, 1) + rel.Value(k)
		c := base(1, 2) + rel.Value(k)
		r.AddDistinct(rel.Tuple{a, b})
		s.AddDistinct(rel.Tuple{b, c})
		t.AddDistinct(rel.Tuple{c, a})
	}
	return i
}

// TriangleSkewed plants a heavy-hitter value shared by a heavyFrac
// fraction of every relation's tuples (in the join position linking R
// and S), the regime where one-round algorithms provably degrade to
// m/p^{1/2} (Section 3.2).
func TriangleSkewed(m int, heavyFrac float64) *rel.Instance {
	i := rel.NewInstance()
	if m <= 0 {
		return i
	}
	r, s, t := i.EnsureRelationSize("R", 2, m), i.EnsureRelationSize("S", 2, m), i.EnsureRelationSize("T", 2, m)
	heavy := base(1, 1)
	nHeavy := int(float64(m) * heavyFrac)
	for k := 0; k < m; k++ {
		a := base(1, 0) + rel.Value(k)
		c := base(1, 2) + rel.Value(k)
		b := heavy
		if k >= nHeavy {
			b = base(1, 1) + rel.Value(k+1)
		}
		r.AddDistinct(rel.Tuple{a, b})
		s.AddDistinct(rel.Tuple{b, c})
		t.AddDistinct(rel.Tuple{c, a})
	}
	return i
}

// RandomGraph returns a directed graph E(x,y) with n vertices and m
// distinct edges, drawn uniformly with the given seed. It panics when
// m exceeds the n(n−1) non-loop edges there are.
func RandomGraph(n, m int, seed int64) *rel.Instance {
	if m > n*(n-1) {
		panic(fmt.Sprintf("workload: RandomGraph(n = %d, m = %d): only n(n−1) distinct non-loop edges exist", n, m))
	}
	r := rand.New(rand.NewSource(seed))
	i := rel.NewInstance()
	for i.Len() < m {
		a := rel.Value(r.Intn(n))
		b := rel.Value(r.Intn(n))
		if a == b {
			continue
		}
		i.Add(rel.NewFact("E", a, b))
	}
	return i
}

// CycleGraph returns the directed n-cycle 0→1→…→n−1→0 over E.
func CycleGraph(n int) *rel.Instance {
	i := rel.NewInstance()
	if n <= 0 {
		return i
	}
	e := i.EnsureRelationSize("E", 2, n)
	for k := 0; k < n; k++ {
		e.AddDistinct(rel.Tuple{rel.Value(k), rel.Value((k + 1) % n)})
	}
	return i
}

// PathGraph returns the directed path 0→1→…→n over E (n edges).
func PathGraph(n int) *rel.Instance {
	i := rel.NewInstance()
	if n <= 0 {
		return i
	}
	e := i.EnsureRelationSize("E", 2, n)
	for k := 0; k < n; k++ {
		e.AddDistinct(rel.Tuple{rel.Value(k), rel.Value(k + 1)})
	}
	return i
}

// ComponentsGraph returns k disjoint directed cycles of the given size
// — an instance with exactly k connected components, used by the
// domain-disjoint-monotonicity experiments (Section 5.2.2).
func ComponentsGraph(k, size int) *rel.Instance {
	i := rel.NewInstance()
	if k <= 0 || size <= 0 {
		return i
	}
	e := i.EnsureRelationSize("E", 2, k*size)
	for comp := 0; comp < k; comp++ {
		off := rel.Value(comp * size)
		for v := 0; v < size; v++ {
			e.AddDistinct(rel.Tuple{off + rel.Value(v), off + rel.Value((v+1)%size)})
		}
	}
	return i
}

// Zipf returns a binary relation of m tuples whose join column (index
// 1) follows a Zipf(s) distribution over n values — realistic skew for
// the SharesSkew-style experiments. The first column is unique per
// tuple. It panics unless s > 1 and n ≥ 2, the distributions
// rand.NewZipf can draw from.
func Zipf(name string, m, n int, s float64, seed int64) *rel.Instance {
	if !(s > 1) || n < 2 {
		panic(fmt.Sprintf("workload: Zipf(s = %v, n = %d): needs s > 1 and n ≥ 2", s, n))
	}
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, s, 1, uint64(n-1))
	i := rel.NewInstance()
	if m <= 0 {
		return i
	}
	out := i.EnsureRelationSize(name, 2, m)
	for k := 0; k < m; k++ {
		out.AddDistinct(rel.Tuple{base(2, 0) + rel.Value(k), base(2, 1) + rel.Value(z.Uint64())})
	}
	return i
}

// AcyclicChain builds an acyclic multiway-join instance over
// R1(x0,x1), R2(x1,x2), …, Rk(x(k-1),xk) where each relation has m
// tuples and consecutive relations join on shared values; a fraction
// dangling of each relation's tuples deliberately fail to join (they
// are "dangling" tuples for Yannakakis' semi-join phase to remove).
func AcyclicChain(k, m int, dangling float64, seed int64) (*rel.Instance, []string) {
	r := rand.New(rand.NewSource(seed))
	i := rel.NewInstance()
	names := make([]string, k)
	nDangle := int(float64(m) * dangling)
	for rIdx := 0; rIdx < k; rIdx++ {
		names[rIdx] = "R" + strconv.Itoa(rIdx)
		if m <= 0 {
			continue
		}
		out := i.EnsureRelationSize(names[rIdx], 2, m)
		for t := 0; t < m; t++ {
			left := base(3+rIdx, 0) + rel.Value(t)
			right := base(3+rIdx+1, 0) + rel.Value(t)
			if t < nDangle {
				// Shift the right endpoint out of the next relation's
				// left column so this tuple dangles.
				right = base(3+rIdx+1, 0) + rel.Value(m+1+r.Intn(m))
			}
			out.AddDistinct(rel.Tuple{left, right})
		}
	}
	return i, names
}

// HeavyHitters returns the values in column col of relation name whose
// frequency strictly exceeds threshold — the paper's notion of skewed
// values.
func HeavyHitters(i *rel.Instance, name string, col int, threshold int) []rel.Value {
	r := i.Relation(name)
	if r == nil {
		return nil
	}
	freq := map[rel.Value]int{}
	r.Each(func(t rel.Tuple) bool {
		freq[t[col]]++
		return true
	})
	set := make(rel.ValueSet)
	for v, n := range freq {
		if n > threshold {
			set.Add(v)
		}
	}
	return set.Sorted()
}
