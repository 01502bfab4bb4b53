package rel

// This file implements a small positional relational algebra over
// *Relation. It is the local evaluation engine used at each MPC server
// and inside the Datalog engine. All operators are set-semantics and
// allocate fresh result relations.

// Select returns the tuples of r satisfying pred.
func Select(r *Relation, pred func(Tuple) bool) *Relation {
	out := NewRelation(r.Name, r.Arity)
	r.Each(func(t Tuple) bool {
		if pred(t) {
			out.Add(t)
		}
		return true
	})
	return out
}

// Project returns r projected onto cols, named name.
func Project(r *Relation, name string, cols []int) *Relation {
	out := NewRelation(name, len(cols))
	r.Each(func(t Tuple) bool {
		out.Add(t.Project(cols))
		return true
	})
	return out
}

// HashJoin computes the equi-join of l and r on the column lists
// lCols/rCols (same length). The result tuple is the concatenation of
// the l-tuple and the r-tuple (all columns of both, join columns
// duplicated), with arity l.Arity + r.Arity.
//
// The build side's join index is cached on the relation (see
// Relation.index), so repeated joins against an unchanged relation —
// the shape of semi-naive Datalog iteration — skip the build phase
// entirely. Probing hashes the probe columns in place and result tuples
// are assembled in a reused scratch buffer; Add copies into the result
// arena, so the loop allocates nothing per probe. The result lists the
// probe side's tuples in its Each order, each with its matches in the
// build side's.
func HashJoin(name string, l, r *Relation, lCols, rCols []int) *Relation {
	if len(lCols) != len(rCols) {
		panic("rel: join column count mismatch")
	}
	out := NewRelation(name, l.Arity+r.Arity)
	// Build on a side that already has a cached index on its join
	// columns; otherwise on the smaller side. Cached indexes survive
	// inserts (see Relation.IndexOn), so a pre-indexed resident relation
	// answers every later delta join at O(|Δ|) instead of being
	// re-scanned as the probe side.
	build, probe := l, r
	bCols, pCols := lCols, rCols
	swapped := false
	lIdx, rIdx := l.cached(lCols) != nil, r.cached(rCols) != nil
	if (rIdx && !lIdx) || (lIdx == rIdx && r.Len() < l.Len()) {
		build, probe = r, l
		bCols, pCols = rCols, lCols
		swapped = true
	}
	idx := build.index(bCols)
	scratch := make(Tuple, l.Arity+r.Arity)
	probe.Each(func(t Tuple) bool {
		idx.Probe(t, pCols, func(bt Tuple) bool {
			if swapped {
				copy(scratch, t)
				copy(scratch[len(t):], bt)
			} else {
				copy(scratch, bt)
				copy(scratch[len(bt):], t)
			}
			out.Add(scratch)
			return true
		})
		return true
	})
	return out
}

// SemiJoin returns the tuples of l that join with at least one tuple of
// r on the given columns (l ⋉ r). The index over r is cached on r.
func SemiJoin(l, r *Relation, lCols, rCols []int) *Relation {
	return semiJoin(l, r, lCols, rCols, true)
}

// AntiJoin returns the tuples of l that join with no tuple of r on the
// given columns (l ▷ r). The index over r is cached on r.
func AntiJoin(l, r *Relation, lCols, rCols []int) *Relation {
	return semiJoin(l, r, lCols, rCols, false)
}

// semiJoin keeps the tuples of l, in Each order, whose having a partner
// in r is match.
func semiJoin(l, r *Relation, lCols, rCols []int, match bool) *Relation {
	if len(lCols) != len(rCols) {
		panic("rel: semijoin column count mismatch")
	}
	idx := r.index(rCols)
	out := NewRelation(l.Name, l.Arity)
	l.Each(func(t Tuple) bool {
		found := false
		idx.Probe(t, lCols, func(Tuple) bool {
			found = true
			return false
		})
		if found == match {
			out.Add(t)
		}
		return true
	})
	return out
}
