package rel

import "slices"

// Join indexing: one hash index on a column list of a relation, used
// two ways. Cached — HashJoin, SemiJoin, AntiJoin and IndexOn build it
// once per (relation, columns), keep it on the relation and maintain it
// on every insert for the relation's life, since stored indices never
// change. Transient — NewIndex builds it over the tuples a filter
// admits, for the caller to probe and drop; nothing is cached on, or
// written to, the relation.
//
// The index is flat: a power-of-two table of int32 bucket heads and one
// int32 link per stored tuple, so neither a build nor an insert
// allocates per key. Buckets key on colsHash, the table's own hash
// restricted to the index columns; a bucket mixes keys, so a probe
// verifies candidates column by column. Each bucket is a ring: its head
// names its last tuple and that tuple's link its first, so an insert
// appends in O(1) and a probe walks the bucket from first to last —
// stored order, which is the relation's Each order.

// Index is a hash index on a column list of a relation.
type Index struct {
	r     *Relation
	cols  []int
	heads []int32 // per bucket: its last stored index + 1, 0 = empty (see newSlots)
	next  []int32 // per stored index: the next in its bucket's ring
}

// NewIndex indexes the tuples of r that admit accepts (every tuple when
// admit is nil) on the columns cols. The index reads r and writes
// nothing to it; neither r nor cols may change while the index is in
// use.
func NewIndex(r *Relation, cols []int, admit func(Tuple) bool) *Index {
	ix := &Index{r: r, cols: cols}
	ix.build(r.count, admit)
	return ix
}

// build links every stored tuple admit accepts into a fresh table
// sized for n tuples at a load of at most one half.
func (ix *Index) build(n int, admit func(Tuple) bool) {
	size := 8
	for size < 2*n {
		size *= 2
	}
	ix.heads = newSlots(size)
	ix.next = make([]int32, ix.r.count)
	for i := range int32(ix.r.count) {
		if admit == nil || admit(ix.r.tupleAt(i)) {
			ix.link(i)
		}
	}
}

// link appends stored tuple i to its bucket's ring.
func (ix *Index) link(i int32) {
	b := colsHash(ix.r.tupleAt(i), ix.cols) & uint64(len(ix.heads)-1)
	if last := ix.heads[b] - 1; last < 0 {
		ix.next[i] = i
	} else {
		ix.next[i], ix.next[last] = ix.next[last], i
	}
	ix.heads[b] = i + 1
}

// inserted maintains a cached index, which holds every stored tuple,
// across the insert of stored tuple i, the relation's newest: it joins
// the end of its bucket, or — past the load ceiling — the table doubles
// and is relinked.
func (ix *Index) inserted(i int32) {
	if 2*ix.r.count > len(ix.heads) {
		ix.build(ix.r.count, nil)
		return
	}
	ix.next = append(ix.next, 0)
	ix.link(i)
}

// Probe calls fn with every indexed tuple whose values at the index
// columns equal t's at cols (a list as long as the index's), in the
// relation's enumeration order, stopping early if fn returns false.
func (ix *Index) Probe(t Tuple, cols []int, fn func(Tuple) bool) {
	last := ix.heads[colsHash(t, cols)&uint64(len(ix.heads)-1)] - 1
	if last < 0 {
		return
	}
	for i := ix.next[last]; ; i = ix.next[i] {
		if s := ix.r.tupleAt(i); equalOn(s, ix.cols, t, cols) && !fn(s) {
			return
		}
		if i == last {
			return
		}
	}
}

// cached returns the relation's cached index on cols, or nil.
func (r *Relation) cached(cols []int) *Index {
	for _, ix := range r.idx {
		if slices.Equal(ix.cols, cols) {
			return ix
		}
	}
	return nil
}

// index returns the relation's cached index on cols, building it on
// first use. Like the rest of Relation, it is not safe for concurrent
// use.
func (r *Relation) index(cols []int) *Index {
	if ix := r.cached(cols); ix != nil {
		return ix
	}
	ix := NewIndex(r, slices.Clone(cols), nil)
	r.idx = append(r.idx, ix)
	return ix
}

// IndexOn builds and caches the relation's join index on cols if it is
// not cached already. Inserts maintain cached indexes incrementally, so
// pre-indexing a long-lived resident relation lets every later HashJoin
// against a small delta probe the resident at O(|Δ|) instead of
// scanning it — the join-side half of the delta-round cost model.
func (r *Relation) IndexOn(cols ...int) {
	r.index(cols)
}

// equalOn reports whether a's projection onto aCols equals b's
// projection onto bCols (the lists must have the same length).
func equalOn(a Tuple, aCols []int, b Tuple, bCols []int) bool {
	for k := range aCols {
		if a[aCols[k]] != b[bCols[k]] {
			return false
		}
	}
	return true
}
