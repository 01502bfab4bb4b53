package rel

import (
	"math/rand"
	"slices"
	"testing"
)

// Laws of the one join index: whatever a relation went through, a
// probe answers what a scan answers, in the order the scan finds it.

// eachTuples lists a relation's tuples in Each order.
func eachTuples(r *Relation) []Tuple {
	var out []Tuple
	r.Each(func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// probeTuples lists what a probe of ix with key at cols yields.
func probeTuples(ix *Index, key Tuple, cols []int) []Tuple {
	var out []Tuple
	ix.Probe(key, cols, func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// scanTuples is the reference probe: the tuples of r, in Each order,
// that admit accepts and that agree with key at cols.
func scanTuples(r *Relation, rCols []int, key Tuple, cols []int, admit func(Tuple) bool) []Tuple {
	var out []Tuple
	r.Each(func(t Tuple) bool {
		if (admit == nil || admit(t)) && equalOn(t, rCols, key, cols) {
			out = append(out, t)
		}
		return true
	})
	return out
}

func equalLists(a, b []Tuple) bool {
	return slices.EqualFunc(a, b, Tuple.Equal)
}

// randomCols draws a column list over arity columns: possibly empty,
// possibly repeating a column, in any order.
func randomCols(rng *rand.Rand, arity int) []int {
	cols := make([]int, rng.Intn(arity+1))
	for k := range cols {
		cols[k] = rng.Intn(arity)
	}
	return cols
}

// TestIndexProbeIsAScan drives random relations through interleaved
// Add, vouched appends, unions, pre-sizing (Reserve, then a union of
// duplicates) and IndexOn. After every step each cached index, and a
// transient index with a filter, answers keys of a small domain with
// exactly the tuples a scan finds, in Each order; and every step but
// IndexOn keeps the cached indexes it found — maintained, never rebuilt
// or dropped, since no write renumbers the stored tuples.
func TestIndexProbeIsAScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	even := func(t Tuple) bool { return t[0]%2 == 0 }
	for trial := 0; trial < 40; trial++ {
		arity := 1 + rng.Intn(3)
		r := randomRelation(rng, "R", arity, rng.Intn(30))
		draw := func() Tuple {
			t := make(Tuple, arity)
			for j := range t {
				t[j] = Value(rng.Intn(6))
			}
			return t
		}
		for step := 0; step < 60; step++ {
			before := slices.Clone(r.idx)
			indexing := false
			switch rng.Intn(6) {
			case 0, 1:
				r.Add(draw())
			case 2:
				if tu := draw(); !r.Contains(tu) {
					r.AddDistinct(tu)
				}
			case 3:
				r.UnionWith(randomRelation(rng, "O", arity, rng.Intn(20)))
			case 4:
				r.Reserve(rng.Intn(200))
				r.UnionWith(r.Clone()) // all duplicates
			default:
				indexing = true
				r.IndexOn(randomCols(rng, arity)...)
			}
			if !indexing && !slices.Equal(r.idx, before) {
				t.Fatalf("trial %d step %d: a write changed the cached indexes", trial, step)
			}
			cols := randomCols(rng, arity)
			transient := NewIndex(r, cols, even)
			for probe := 0; probe < 8; probe++ {
				key := draw()
				for _, ix := range r.idx {
					if got, want := probeTuples(ix, key, ix.cols), scanTuples(r, ix.cols, key, ix.cols, nil); !equalLists(got, want) {
						t.Fatalf("trial %d step %d: cached index on %v probed with %v yields %v, a scan %v", trial, step, ix.cols, key, got, want)
					}
				}
				if got, want := probeTuples(transient, key, cols), scanTuples(r, cols, key, cols, even); !equalLists(got, want) {
					t.Fatalf("trial %d step %d: transient index on %v probed with %v yields %v, a scan %v", trial, step, cols, key, got, want)
				}
			}
		}
	}
}

// TestNewIndexWritesNothing: a transient index leaves the relation as
// it found it — no cached index, and the sorted enumeration cache
// untouched.
func TestNewIndexWritesNothing(t *testing.T) {
	r := randomRelation(rand.New(rand.NewSource(1)), "R", 2, 40)
	sorted := r.Tuples()
	NewIndex(r, []int{1}, nil).Probe(Tuple{3, 3}, []int{0}, func(Tuple) bool { return true })
	if len(r.idx) != 0 || &r.sorted[0] != &sorted[0] {
		t.Fatalf("NewIndex wrote to the relation: %d cached indexes", len(r.idx))
	}
}

// joinOrder is the nested-loop reference of HashJoin: the probe side
// outside, in Each order, the build side inside, in Each order. The
// build side is the one with a cached index on its join columns, else
// the smaller one, l on a tie.
func joinOrder(l, r *Relation, lCols, rCols []int) []Tuple {
	lIdx, rIdx := l.cached(lCols) != nil, r.cached(rCols) != nil
	buildR := (rIdx && !lIdx) || (lIdx == rIdx && r.Len() < l.Len())
	var out []Tuple
	if buildR {
		for _, lt := range eachTuples(l) {
			for _, rt := range eachTuples(r) {
				if equalOn(lt, lCols, rt, rCols) {
					out = append(out, lt.Concat(rt))
				}
			}
		}
		return out
	}
	for _, rt := range eachTuples(r) {
		for _, lt := range eachTuples(l) {
			if equalOn(lt, lCols, rt, rCols) {
				out = append(out, lt.Concat(rt))
			}
		}
	}
	return out
}

// semiOrder is the nested-loop reference of SemiJoin (match) and
// AntiJoin (!match): l's tuples in Each order whose having a partner
// in r is match.
func semiOrder(l, r *Relation, lCols, rCols []int, match bool) []Tuple {
	var out []Tuple
	for _, lt := range eachTuples(l) {
		found := false
		for _, rt := range eachTuples(r) {
			if equalOn(lt, lCols, rt, rCols) {
				found = true
				break
			}
		}
		if found == match {
			out = append(out, lt)
		}
	}
	return out
}

// TestJoinsAreNestedLoops holds HashJoin, SemiJoin and AntiJoin to
// nested-loop references in Each order, on random relations with or
// without a table (filled by Add, or by vouched appends) and with or
// without a cached index on either side.
func TestJoinsAreNestedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(31415))
	for trial := 0; trial < 200; trial++ {
		la, ra := 1+rng.Intn(3), 1+rng.Intn(3)
		flat := func(x *Relation) *Relation {
			if rng.Intn(2) == 0 {
				return x
			}
			out := NewRelation(x.Name, x.Arity)
			x.Each(func(t Tuple) bool { out.AddDistinct(t); return true })
			return out
		}
		l := flat(randomRelation(rng, "L", la, rng.Intn(25)))
		r := flat(randomRelation(rng, "R", ra, rng.Intn(25)))
		n := rng.Intn(3)
		lCols, rCols := make([]int, n), make([]int, n)
		for k := range lCols {
			lCols[k], rCols[k] = rng.Intn(la), rng.Intn(ra)
		}
		switch rng.Intn(4) {
		case 0:
			l.IndexOn(lCols...)
		case 1:
			r.IndexOn(rCols...)
		}
		want := joinOrder(l, r, lCols, rCols)
		if got := eachTuples(HashJoin("J", l, r, lCols, rCols)); !equalLists(got, want) {
			t.Fatalf("trial %d: HashJoin on %v=%v yields %v, the nested loop %v", trial, lCols, rCols, got, want)
		}
		if got, want := eachTuples(SemiJoin(l, r, lCols, rCols)), semiOrder(l, r, lCols, rCols, true); !equalLists(got, want) {
			t.Fatalf("trial %d: SemiJoin on %v=%v yields %v, the nested loop %v", trial, lCols, rCols, got, want)
		}
		if got, want := eachTuples(AntiJoin(l, r, lCols, rCols)), semiOrder(l, r, lCols, rCols, false); !equalLists(got, want) {
			t.Fatalf("trial %d: AntiJoin on %v=%v yields %v, the nested loop %v", trial, lCols, rCols, got, want)
		}
	}
}
