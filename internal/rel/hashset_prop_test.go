package rel

import (
	"math/rand"
	"testing"
)

// Cross-checks of the open-addressing tuple set against a reference
// implementation (a Go map keyed by the injective Tuple.Key string),
// plus white-box tests that force hash collisions, which random data
// cannot produce at 64 bits.

// refSet is the reference set semantics the Relation must match.
type refSet map[string]Tuple

func (s refSet) add(t Tuple) bool {
	k := t.Key()
	if _, ok := s[k]; ok {
		return false
	}
	s[k] = append(Tuple(nil), t...)
	return true
}

func checkAgainstRef(t *testing.T, r *Relation, ref refSet) {
	t.Helper()
	if r.Len() != len(ref) {
		t.Fatalf("Len = %d, reference has %d", r.Len(), len(ref))
	}
	for _, tu := range ref {
		if !r.Contains(tu) {
			t.Fatalf("missing tuple %v", tu)
		}
	}
	seen := 0
	r.Each(func(tu Tuple) bool {
		if _, ok := ref[tu.Key()]; !ok {
			t.Fatalf("Each yields tuple %v not in reference", tu)
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("Each yielded %d tuples, reference has %d", seen, len(ref))
	}
	sorted := r.Tuples()
	if len(sorted) != len(ref) {
		t.Fatalf("Tuples yielded %d tuples, reference has %d", len(sorted), len(ref))
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Compare(sorted[i]) >= 0 {
			t.Fatalf("Tuples not strictly sorted at %d: %v, %v", i, sorted[i-1], sorted[i])
		}
	}
}

// TestPropHashSetVsReference drives random Add/Contains sequences,
// with vouched appends of absent tuples and Reserve calls mixed in,
// over a value domain small enough that duplicate inserts and hits are
// frequent, comparing every answer with the reference map.
func TestPropHashSetVsReference(t *testing.T) {
	for _, arity := range []int{0, 1, 3} {
		rng := rand.New(rand.NewSource(int64(1000 + arity)))
		r := NewRelation("R", arity)
		ref := refSet{}
		draw := func() Tuple {
			tu := make(Tuple, arity)
			for j := range tu {
				tu[j] = Value(rng.Intn(9))
			}
			return tu
		}
		for step := 0; step < 4000; step++ {
			tu := draw()
			switch rng.Intn(3) {
			case 0:
				if got, want := r.Add(tu), ref.add(tu); got != want {
					t.Fatalf("arity %d step %d: Add(%v) = %v, reference says %v", arity, step, tu, got, want)
				}
			case 1:
				if ref.add(tu) {
					r.AddDistinct(tu)
				} else {
					r.Reserve(rng.Intn(64))
				}
			default:
				_, want := ref[tu.Key()]
				if got := r.Contains(tu); got != want {
					t.Fatalf("arity %d step %d: Contains(%v) = %v, reference says %v", arity, step, tu, got, want)
				}
			}
			if step%97 == 0 {
				checkAgainstRef(t, r, ref)
			}
		}
		checkAgainstRef(t, r, ref)
	}
}

// TestPropUnionWithVsReference grows a relation by unions and checks
// the added-count and final contents against the reference.
func TestPropUnionWithVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	r := NewRelation("R", 2)
	ref := refSet{}
	for trial := 0; trial < 40; trial++ {
		o := randomRelation(rng, "O", 2, rng.Intn(30))
		want := 0
		o.Each(func(tu Tuple) bool {
			if ref.add(tu) {
				want++
			}
			return true
		})
		if got := r.UnionWith(o); got != want {
			t.Fatalf("trial %d: UnionWith added %d, reference says %d", trial, got, want)
		}
		// Interleave vouched appends so unions also meet tables that
		// grew without a membership question.
		for k := 0; k < 5; k++ {
			tu := Tuple{Value(100 + rng.Intn(60)), Value(rng.Intn(6))}
			if ref.add(tu) {
				r.AddDistinct(tu)
			}
		}
		checkAgainstRef(t, r, ref)
	}
}

// TestPropCloneIndependence checks Clone is a deep copy: growing
// either side never shows through on the other.
func TestPropCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	orig := randomRelation(rng, "R", 2, 40)
	snapshot := refSet{}
	orig.Each(func(tu Tuple) bool { snapshot.add(tu); return true })
	cl := orig.Clone()
	if !cl.Equal(orig) {
		t.Fatalf("clone not equal to original")
	}
	grow := func(r *Relation) {
		for k := 0; k < 200; k++ {
			r.Add(Tuple{Value(rng.Intn(16)), Value(rng.Intn(16))})
		}
	}
	grow(cl)
	checkAgainstRef(t, orig, snapshot)
	cloned := refSet{}
	cl.Each(func(tu Tuple) bool { cloned.add(tu); return true })
	grow(orig)
	checkAgainstRef(t, cl, cloned)
}

// forceTuples are distinct tuples fed through the white-box insert path
// with one shared, fabricated hash so every table operation probes
// through colliding entries and must fall back to Tuple.Equal.
func forceTuples(n int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{Value(i), Value(i * 7)}
	}
	return out
}

// TestForcedFullHashCollisions exercises insert/find with identical
// 64-bit hashes: a full collision is vanishingly unlikely with real
// data, so the verification path is driven directly. Growth past the
// load ceiling rehashes the chain, and every tuple keeps its stored
// index.
func TestForcedFullHashCollisions(t *testing.T) {
	const h = uint64(0xdeadbeefcafef00d)
	r := NewRelation("C", 2)
	ts := forceTuples(50)
	for _, tu := range ts {
		if !r.insert(h, tu) {
			t.Fatalf("insert(%v) under shared hash reported duplicate", tu)
		}
		if r.insert(h, tu) {
			t.Fatalf("re-insert(%v) under shared hash reported new", tu)
		}
	}
	if r.Len() != len(ts) {
		t.Fatalf("Len = %d after %d colliding inserts", r.Len(), len(ts))
	}
	for i, tu := range ts {
		if got := r.find(h, tu); got != int32(i) {
			t.Fatalf("find(%v) = %d under shared hash, want stored index %d", tu, got, i)
		}
	}
	if r.find(h, Tuple{-1, -1}) >= 0 {
		t.Fatal("find of an absent tuple under the shared hash succeeded")
	}
	slots := len(r.slots)
	extra := make([]Tuple, 200)
	for i := range extra {
		extra[i] = Tuple{Value(1000 + i), Value(i)}
		r.Add(extra[i])
	}
	if len(r.slots) == slots {
		t.Fatal("the table never grew; the rehash below is not exercised")
	}
	for i, tu := range ts {
		if got := r.find(h, tu); got != int32(i) {
			t.Fatalf("find(%v) = %d after rehash, want stored index %d", tu, got, i)
		}
	}
	if r.Len() != len(ts)+len(extra) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(ts)+len(extra))
	}
}

// TestRealLowBitCollisions brute-forces tuples whose genuine table
// hashes agree on the low bits used by a minimum-size table, so the
// public API itself walks probe chains full of partial collisions —
// to find the members and to reject the absent ones.
func TestRealLowBitCollisions(t *testing.T) {
	const wantBits = 7 // minimum table size 8 → 3-bit slot index
	var colliding []Tuple
	for v := Value(0); len(colliding) < 12; v++ {
		tu := Tuple{v}
		if tableHash(tu)&wantBits == 0 {
			colliding = append(colliding, tu)
		}
	}
	r := NewRelation("L", 1)
	for i, tu := range colliding {
		if i%3 != 0 && !r.Add(tu) {
			t.Fatalf("Add(%v) reported duplicate", tu)
		}
	}
	for i, tu := range colliding {
		if got, want := r.Contains(tu), i%3 != 0; got != want {
			t.Fatalf("Contains(%v) = %v, want %v", tu, got, want)
		}
	}
}

// TestTupleViewsSurviveCompaction takes tuple views of a relation
// filled by vouched appends, then builds its table and grows it far
// past its storage (a relation only grows, so growth is what moves the
// arena), and checks every view still reads its original values and
// each tuple still sits at its stored index.
func TestTupleViewsSurviveCompaction(t *testing.T) {
	r := NewRelation("V", 2)
	const n = 300
	for i := 0; i < n; i++ {
		r.AddDistinct(Tuple{Value(i), Value(-i)})
	}
	views := make([]Tuple, 0, n)
	r.Each(func(tu Tuple) bool {
		views = append(views, tu)
		return true
	})
	first := &r.arena[0]
	for i := n; i < 8*n; i++ {
		r.Add(Tuple{Value(i), Value(-i)})
	}
	if &r.arena[0] == first {
		t.Fatal("the arena never moved; growth is not exercised")
	}
	for i, v := range views {
		if v[0] != Value(i) || v[1] != -v[0] {
			t.Fatalf("tuple view %d corrupted: %v", i, v)
		}
		if got := r.tupleAt(int32(i)); !got.Equal(v) {
			t.Fatalf("stored tuple %d is %v after growth, want %v", i, got, v)
		}
	}
	if r.Len() != 8*n {
		t.Fatalf("Len = %d, want %d", r.Len(), 8*n)
	}
}

// refSemiJoin is the obvious nested-loop semijoin the indexed SemiJoin
// must agree with.
func refSemiJoin(l, r *Relation, lCols, rCols []int) *Relation {
	out := NewRelation(l.Name, l.Arity)
	for _, lt := range l.Tuples() {
		for _, rt := range r.Tuples() {
			if equalOn(lt, lCols, rt, rCols) {
				out.Add(lt)
				break
			}
		}
	}
	return out
}

// TestJoinIndexSurvivesGrowCompaction: grow() (reached via
// Instance.EnsureRelationSize and UnionWith) rehashes the table into a
// larger one. Stored indices never change, so the join index cached
// before the growth is kept — the same index, not a rebuild — and
// still answers exactly.
func TestJoinIndexSurvivesGrowCompaction(t *testing.T) {
	inst := NewInstance()
	for i := 0; i < 100; i++ {
		inst.Add(NewFact("R", Value(i), Value(i%7)))
	}
	r := inst.Relation("R")
	probe := NewRelation("P", 1)
	for i := 0; i < 200; i++ {
		probe.Add(Tuple{Value(i)})
	}
	want := refSemiJoin(probe, r, []int{0}, []int{0})
	if got := SemiJoin(probe, r, []int{0}, []int{0}); !got.Equal(want) {
		t.Fatalf("SemiJoin before grow: got %d tuples, want %d", got.Len(), want.Len())
	}
	ix, slots := r.cached([]int{0}), len(r.slots)
	if ix == nil {
		t.Fatal("SemiJoin cached no index")
	}
	// Pre-sizing rehashes into a larger table but adds nothing.
	inst.EnsureRelationSize("R", 2, 4096)
	if len(r.slots) == slots {
		t.Fatal("pre-sizing did not rehash; the case is not exercised")
	}
	if r.cached([]int{0}) != ix {
		t.Fatal("growth dropped the cached index")
	}
	if got := SemiJoin(probe, r, []int{0}, []int{0}); !got.Equal(want) {
		t.Fatalf("SemiJoin after grow: got %d tuples, want %d", got.Len(), want.Len())
	}
	// Same shape through UnionWith: duplicates add nothing, new tuples
	// join the cached index's buckets.
	more := NewRelation("D", 2)
	r.Each(func(tu Tuple) bool { more.Add(tu); return true })
	for i := 100; i < 150; i++ {
		more.Add(Tuple{Value(i), Value(i % 7)})
	}
	r.UnionWith(more)
	if r.cached([]int{0}) != ix {
		t.Fatal("UnionWith dropped the cached index")
	}
	want2 := refSemiJoin(probe, r, []int{0}, []int{0})
	if got := SemiJoin(probe, r, []int{0}, []int{0}); !got.Equal(want2) || got.Len() != 150 {
		t.Fatalf("SemiJoin after union: got %d tuples, want %d", got.Len(), want2.Len())
	}
}

// TestJoinIndexSurvivesDuplicateAddRehash: a duplicate Add that crosses
// the load-factor ceiling rehashes before discovering it inserts
// nothing. The setup walks the relation to the exact brink of the
// ceiling, caches a join index, then re-adds an existing tuple: the
// table grows, and the index is kept and still answers exactly.
func TestJoinIndexSurvivesDuplicateAddRehash(t *testing.T) {
	r := NewRelation("R", 1)
	for i := 0; i < 50; i++ {
		r.Add(Tuple{Value(i)})
	}
	// Fill with fresh tuples while the next insert stays under the
	// ceiling; the guard mirrors insert's rehash condition, so no Add in
	// this loop rehashes and the one after the loop must.
	for v := 1000; (r.count+1)*4 <= len(r.slots)*3; v++ {
		r.Add(Tuple{Value(v)})
	}
	probe := NewRelation("P", 1)
	for i := 0; i < 60; i++ {
		probe.Add(Tuple{Value(i)})
	}
	want := refSemiJoin(probe, r, []int{0}, []int{0})
	if got := SemiJoin(probe, r, []int{0}, []int{0}); !got.Equal(want) {
		t.Fatalf("SemiJoin before rehash: got %d tuples, want %d", got.Len(), want.Len())
	}
	ix, slots := r.cached([]int{0}), len(r.slots)
	if r.Add(Tuple{Value(49)}) {
		t.Fatal("re-Add of a present tuple reported new")
	}
	if len(r.slots) == slots {
		t.Fatal("the duplicate Add did not rehash; the case is not exercised")
	}
	if r.cached([]int{0}) != ix {
		t.Fatal("the rehash dropped the cached index")
	}
	if got := SemiJoin(probe, r, []int{0}, []int{0}); !got.Equal(want) {
		t.Fatalf("SemiJoin after duplicate-Add rehash: got %d tuples, want %d", got.Len(), want.Len())
	}
}

// TestPropJoinIndexUnderCompactionTraffic interleaves Add, vouched
// appends, Reserve, SemiJoin (which caches a join index), duplicate-Add
// storms, and UnionWith on one relation, checking every SemiJoin answer
// against the reference map: whatever growth and rehashes the traffic
// triggers, the cached index must be kept and never serve a stale or
// missing tuple index.
func TestPropJoinIndexUnderCompactionTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	r := NewRelation("R", 2)
	ref := refSet{}
	l := randomRelation(rng, "L", 2, 60)
	draw := func() Tuple {
		return Tuple{Value(rng.Intn(12)), Value(rng.Intn(12))}
	}
	checkSemi := func(step int) {
		got := SemiJoin(l, r, []int{0}, []int{1})
		n := 0
		for _, lt := range l.Tuples() {
			match := false
			for _, rt := range ref {
				if rt[1] == lt[0] {
					match = true
					break
				}
			}
			if match {
				n++
			}
			if got.Contains(lt) != match {
				t.Fatalf("step %d: SemiJoin includes %v = %v, reference says %v", step, lt, !match, match)
			}
		}
		if got.Len() != n {
			t.Fatalf("step %d: SemiJoin has %d tuples, reference says %d", step, got.Len(), n)
		}
	}
	for step := 0; step < 1500; step++ {
		switch rng.Intn(5) {
		case 0, 1:
			tu := draw()
			if got, want := r.Add(tu), ref.add(tu); got != want {
				t.Fatalf("step %d: Add(%v) = %v, reference says %v", step, tu, got, want)
			}
		case 2:
			if tu := draw(); ref.add(tu) {
				r.AddDistinct(tu)
			} else {
				r.Reserve(rng.Intn(100))
			}
		case 3:
			o := randomRelation(rng, "O", 2, rng.Intn(40))
			o.Each(func(tu Tuple) bool { ref.add(tu); return true })
			r.UnionWith(o)
		default:
			checkSemi(step)
			// Duplicate re-adds never report a new tuple; one that
			// crosses the load ceiling rehashes with the index live.
			for _, tu := range r.Tuples() {
				if r.Add(tu) {
					t.Fatalf("step %d: re-Add(%v) reported new", step, tu)
				}
			}
			checkSemi(step)
		}
	}
	checkAgainstRef(t, r, ref)
}

// TestSortedCacheInvalidation checks Tuples reflects every insert, that
// a growth that inserts nothing keeps the cache, and that appending to a
// returned slice cannot corrupt the cache.
func TestSortedCacheInvalidation(t *testing.T) {
	r := NewRelation("S", 1)
	r.Add(Tuple{2})
	r.Add(Tuple{0})
	first := r.Tuples()
	if len(first) != 2 || first[0][0] != 0 || first[1][0] != 2 {
		t.Fatalf("Tuples = %v, want [[0] [2]]", first)
	}
	// Appending to the returned slice must not write into the cache.
	_ = append(first, Tuple{99})
	if again := r.Tuples(); len(again) != 2 {
		t.Fatalf("cache corrupted by caller append: %v", again)
	}
	r.Add(Tuple{1})
	if got := r.Tuples(); len(got) != 3 || got[1][0] != 1 {
		t.Fatalf("Tuples after Add = %v, want [[0] [1] [2]]", got)
	}
	r.Reserve(1000)
	if r.sorted == nil {
		t.Fatal("Reserve, which inserts nothing, dropped the sorted cache")
	}
	r.AddDistinct(Tuple{-1})
	if got := r.Tuples(); len(got) != 4 || got[0][0] != -1 {
		t.Fatalf("Tuples after AddDistinct = %v, want [[-1] [0] [1] [2]]", got)
	}
	o := NewRelation("O", 1)
	o.Add(Tuple{0})
	o.Add(Tuple{3})
	r.UnionWith(o)
	if got := r.Tuples(); len(got) != 5 || got[4][0] != 3 {
		t.Fatalf("Tuples after UnionWith = %v, want [[-1] [0] [1] [2] [3]]", got)
	}
}
