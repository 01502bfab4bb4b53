package rel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Laws of the relation's two kernels: the sorted enumeration (a radix
// sort with comparison base cases, sort.go) is Each sorted by
// Tuple.Compare, and the table hash (tableHash) spreads the key
// families real data has, while the placement hashes stay frozen.

// referenceOrder is the order Tuples must produce: Each, then a
// comparison sort by Tuple.Compare.
func referenceOrder(r *Relation) []Tuple {
	var out []Tuple
	r.Each(func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	slices.SortFunc(out, Tuple.Compare)
	return out
}

func checkSortedEnumeration(t *testing.T, name string, r *Relation) {
	t.Helper()
	r.sorted = nil
	got, want := r.Tuples(), referenceOrder(r)
	if len(got) != len(want) {
		t.Fatalf("%s: Tuples has %d tuples, Each has %d", name, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: Tuples()[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// valueDraw draws one column value; each is a shape the radix sort
// must order exactly as Tuple.Compare does.
type valueDraw struct {
	name string
	draw func(rng *rand.Rand) Value
}

var valueDraws = []valueDraw{
	{"small", func(rng *rand.Rand) Value { return Value(rng.Intn(1 << 10)) }},
	{"constant", func(*rand.Rand) Value { return 42 }},
	{"negative", func(rng *rand.Rand) Value { return Value(-rng.Intn(1 << 20)) }},
	{"straddles-zero", func(rng *rand.Rand) Value { return Value(rng.Intn(1<<12) - 1<<11) }},
	{"byte-boundary", func(rng *rand.Rand) Value { return Value(250 + rng.Intn(12)) }},
	{"bit16-boundary", func(rng *rand.Rand) Value { return Value(1<<16 - 3 + rng.Intn(7)) }},
	{"full-width", func(rng *rand.Rand) Value { return Value(rng.Uint64()) }},
	// A 41-bit span whose middle digits are all zero: passes skipped.
	{"bit-gap", func(rng *rand.Rand) Value { return Value(rng.Intn(1<<8) | rng.Intn(2)<<40) }},
	{"extremes", func(rng *rand.Rand) Value {
		return []Value{math.MinInt64, math.MaxInt64, -1, 0, 1, math.MinInt64 + 1, math.MaxInt64 - 1}[rng.Intn(7)]
	}},
}

// drawRelation fills a relation of the given arity with up to n
// distinct tuples whose column c is drawn by draws[c].
func drawRelation(rng *rand.Rand, draws []valueDraw, n int) *Relation {
	r := NewRelation("R", len(draws))
	t := make(Tuple, len(draws))
	for tries := 0; r.Len() < n && tries < 4*n; tries++ {
		for c, d := range draws {
			t[c] = d.draw(rng)
		}
		r.Add(t)
	}
	return r
}

// TestTuplesIsSortedEach: for random relations of arity 1–4 over every
// column shape, at sizes on both sides of the base-case cutoff, Tuples
// is Each sorted by Tuple.Compare — fresh, grown by a second draw
// (appended out of order into the built table, which grows), and
// pre-sized past that.
func TestTuplesIsSortedEach(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	sizes := []int{1, 7, radixMinTuples - 1, radixMinTuples, 3000}
	for arity := 1; arity <= 4; arity++ {
		for trial := 0; trial < 24; trial++ {
			draws := make([]valueDraw, arity)
			names := ""
			for c := range draws {
				draws[c] = valueDraws[rng.Intn(len(valueDraws))]
				names += "/" + draws[c].name
			}
			for _, n := range sizes {
				name := fmt.Sprintf("arity %d n %d%s", arity, n, names)
				r := drawRelation(rng, draws, n)
				checkSortedEnumeration(t, name, r)
				drawRelation(rng, draws, n/2+1).Each(func(tu Tuple) bool {
					if !r.Contains(tu) {
						r.AddDistinct(tu)
					}
					return true
				})
				checkSortedEnumeration(t, name+" grown", r)
				r.Reserve(4 * n)
				checkSortedEnumeration(t, name+" reserved", r)
			}
		}
	}
}

// TestTuplesBothSidesOfThePassLimit pins which sort runs: the radix
// passes when the columns' widths fit the pass budget, the comparison
// base case when they do not or when the relation is small — and the
// order is the same either way.
func TestTuplesBothSidesOfThePassLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct {
		arity, n, bits int
		radix          bool
	}{
		{2, radixMinTuples - 1, 20, false},
		{2, radixMinTuples, 20, true}, // 2 × 3 passes of 7 bits ≤ 10 − 3
		{2, 3000, 20, true},
		{3, 3000, 30, true},  // 3 × 3 passes of 10 bits ≤ 12 − 3
		{3, 3000, 40, false}, // 3 × 4 > 9
		{2, 3000, 64, false},
		{2, 20000, 64, true}, // 2 × 6 passes of 11 bits ≤ 15 − 3
		{4, 20000, 64, false},
	} {
		name := fmt.Sprintf("arity %d n %d bits %d", c.arity, c.n, c.bits)
		r := spanRelation(rng.Int63(), c.arity, c.n, c.bits)
		if got := r.radixDigit() > 0; got != c.radix {
			t.Errorf("%s: radix = %v, want %v", name, got, c.radix)
		}
		checkSortedEnumeration(t, name, r)
	}
}

// TestSortedCacheIsReusedAboveTheCutoff: on the radix path too, Tuples
// returns the cached enumeration until a mutation, and appending to
// the returned slice cannot write into the cache.
func TestSortedCacheIsReusedAboveTheCutoff(t *testing.T) {
	r := spanRelation(3, 2, 2*radixMinTuples, 16)
	first := r.Tuples()
	if again := r.Tuples(); &again[0] != &first[0] {
		t.Fatal("an unchanged relation re-sorted")
	}
	grown := append(first, Tuple{-1, -1})
	grown[0] = Tuple{-2, -2}
	again := r.Tuples()
	if len(again) != r.Len() || !again[0].Equal(referenceOrder(r)[0]) {
		t.Fatalf("cache corrupted by caller append: len %d, first %v", len(again), again[0])
	}
	r.Add(Tuple{-1, -1})
	if got := r.Tuples(); &got[0] == &first[0] || !got[0].Equal(Tuple{-1, -1}) {
		t.Fatalf("Tuples after Add = %v…, want the new minimum first", got[0])
	}
}

// TestAscendingRecord pins the record that a relation's arena is
// strictly ascending: appends above the last stored tuple keep it, a
// smaller one clears it; growth, the first table build and Clone keep
// it; and the sorted enumeration it allows is the one the radix passes
// compute over the same set inserted shuffled.
func TestAscendingRecord(t *testing.T) {
	ascendingRun := func(n int) *Relation {
		r := NewRelation("A", 2)
		for v := range n {
			r.Add(Tuple{Value(v / 4), Value(v % 4)})
		}
		return r
	}
	r := ascendingRun(6)
	if !r.ascending {
		t.Fatal("an ascending run of Adds is not marked ascending")
	}
	if cl := r.Clone(); !cl.ascending {
		t.Error("Clone dropped the record")
	}
	r.Add(Tuple{1, 1}) // already present: no append
	if !r.ascending {
		t.Error("a duplicate Add, which appends nothing, cleared the record")
	}
	smaller := r.Clone()
	smaller.AddDistinct(Tuple{-1, 7})
	if smaller.ascending {
		t.Error("an append below the last tuple kept the record")
	}
	if smaller.Clone().ascending {
		t.Error("Clone set a cleared record")
	}

	// Growth keeps the record; what the arena ends with is what the
	// next append is compared to.
	grown := r.Clone()
	grown.Reserve(100)
	grown.Add(Tuple{1, 2}) // above (1, 1), the last
	grown.Reserve(1000)
	if !grown.ascending {
		t.Error("growth cleared the record")
	}
	checkSortedEnumeration(t, "grown", grown)

	// Vouched appends keep it with no table; the first table build,
	// which hashes the run, keeps it too.
	flat := NewRelation("A", 2)
	for v := range 6 {
		flat.AddDistinct(Tuple{Value(v), 0})
	}
	if flat.slots != nil || !flat.ascending {
		t.Fatalf("vouched ascending appends: table built %v, ascending %v", flat.slots != nil, flat.ascending)
	}
	if flat.Contains(Tuple{9, 9}) || !flat.ascending {
		t.Error("the first table build cleared the record")
	}

	// An empty relation's first tuple starts a run, pre-sized or not.
	empty := NewRelation("A", 2)
	empty.Reserve(10)
	empty.Add(Tuple{9, 9})
	if !empty.ascending {
		t.Error("the first tuple of an empty arena did not start a run")
	}

	// The enumeration an ascending relation reads off its arena is the
	// one the radix passes compute over the same set inserted shuffled.
	const n = 4 * radixMinTuples
	asc := ascendingRun(n)
	shuffled := NewRelation("A", 2)
	for _, i := range rand.New(rand.NewSource(38)).Perm(n) {
		shuffled.Add(Tuple{Value(i / 4), Value(i % 4)})
	}
	if !asc.ascending || shuffled.ascending || shuffled.radixDigit() == 0 {
		t.Fatalf("ascending %v, shuffled ascending %v with radix digit %d", asc.ascending, shuffled.ascending, shuffled.radixDigit())
	}
	if got, want := asc.Tuples(), shuffled.Tuples(); !equalLists(got, want) {
		t.Fatal("the ascending relation's enumeration differs from the radix sort's")
	}
	checkSortedEnumeration(t, "ascending", asc)
}

// longestProbe returns the largest distance between a stored tuple's
// home slot and the slot it occupies — the longest probe any lookup of
// a present tuple walks.
func longestProbe(r *Relation) int {
	mask := uint64(len(r.slots) - 1)
	longest := 0
	for s, v := range r.slots {
		if v == 0 {
			continue
		}
		if d := int((uint64(s) - r.hashes[v-1]) & mask); d > longest {
			longest = d
		}
	}
	return longest
}

// TestTableHashSpreadsStructuredKeys: key families real data has —
// dense grids, diagonals, values in the high word only, negatives —
// fill a table near its 0.75 load ceiling without a long probe run.
// Linear probing under uniformly random hashes at this load has
// longest probes of 60–180 slots (three seeds, these families); the
// bound leaves room for that and fails on a hash that clusters a
// family (one that keys on low bits alone puts (i<<32, 0) in one slot,
// a probe of ~24 000).
func TestTableHashSpreadsStructuredKeys(t *testing.T) {
	const side = 155 // 24 025 tuples in a 32 768-slot table: load 0.73
	const bound = 256
	families := map[string]func(i, j int) Tuple{
		"grid":      func(i, j int) Tuple { return Tuple{Value(i), Value(j)} },
		"diagonal":  func(i, j int) Tuple { return Tuple{Value(i*side + j), Value(i*side + j)} },
		"high-word": func(i, j int) Tuple { return Tuple{Value(i*side+j) << 32, 0} },
		"negative":  func(i, j int) Tuple { return Tuple{Value(-i), Value(-j)} },
		"unary":     func(i, j int) Tuple { return Tuple{Value(i*side + j)} },
		"strided":   func(i, j int) Tuple { return Tuple{Value(i << 20), Value(j << 40), 0} },
	}
	for name, key := range families {
		r := NewRelation("R", len(key(0, 0)))
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				r.Add(key(i, j))
			}
		}
		if r.Len() != side*side {
			t.Fatalf("%s: %d tuples, want %d", name, r.Len(), side*side)
		}
		if got := longestProbe(r); got > bound {
			t.Errorf("%s: longest probe %d slots at load %.2f, bound %d", name, got, float64(r.Len())/float64(len(r.slots)), bound)
		}
	}
}

// TestPlacementHashesAreFrozen pins Tuple.Hash and Fact.Hash on a
// handful of inputs. Every route, owner election, grid cell,
// MaxLoad and golden report is a function of these values; the table's
// own hash may change, these may not.
func TestPlacementHashesAreFrozen(t *testing.T) {
	for _, c := range []struct {
		t    Tuple
		want uint64
	}{
		{Tuple{}, 0xefd01f60ba992926},
		{Tuple{0}, 0x7bd3144f29c0cc9e},
		{Tuple{1, 2}, 0x83950b668a424a},
		{Tuple{-1, math.MinInt64, math.MaxInt64}, 0x47b3e790bbc810fe},
		{Tuple{1 << 32, 0, 7, 42}, 0x1ef5644cd14cce04},
	} {
		if got := c.t.Hash(); got != c.want {
			t.Errorf("Tuple%v.Hash() = %#x, want %#x", c.t, got, c.want)
		}
	}
	for _, c := range []struct {
		f    Fact
		want uint64
	}{
		{NewFact("R", 1, 2), 0x69d85a5f3cee4ec8},
		{NewFact("Follows", -3, 1<<40), 0xaa9831dfbb52a607},
		{NewFact("E"), 0x17ceb45d12415339},
	} {
		if got := c.f.Hash(); got != c.want {
			t.Errorf("%v.Hash() = %#x, want %#x", c.f, got, c.want)
		}
	}
}
