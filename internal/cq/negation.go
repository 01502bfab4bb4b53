package cq

import (
	"fmt"

	"mpclogic/internal/rel"
)

// This file implements the bounded counterexample machinery for
// conjunctive queries with negation (CQ¬). Containment for CQ¬ is
// coNEXPTIME-complete (Theorem 4.9 route, via [Geck et al., ICDT 2016]),
// so any exact procedure is exponential; we provide exhaustive search
// over instances with a bounded universe, which is exact once the
// universe (and hence instance space) is large enough for the schema at
// hand, and is precisely the shape of procedure the upper-bound proofs
// describe.

// MaxInstanceSpace bounds the number of candidate facts the exhaustive
// searches are willing to enumerate subsets of (2^MaxInstanceSpace
// instances).
const MaxInstanceSpace = 24

// EachInstance enumerates every instance over the schema with values
// from universe, calling fn for each; enumeration stops when fn
// returns false. It returns an error when the instance space exceeds
// 2^MaxInstanceSpace.
func EachInstance(schema rel.Schema, universe []rel.Value, fn func(*rel.Instance) bool) error {
	facts := schema.AllFacts(universe)
	if len(facts) > MaxInstanceSpace {
		return fmt.Errorf("cq: instance space 2^%d too large (max 2^%d); shrink the universe", len(facts), MaxInstanceSpace)
	}
	n := uint(len(facts))
	for mask := uint64(0); mask < 1<<n; mask++ {
		inst := rel.NewInstance()
		for b := uint(0); b < n; b++ {
			if mask&(1<<b) != 0 {
				inst.Add(facts[b])
			}
		}
		if !fn(inst) {
			return nil
		}
	}
	return nil
}

// EachBoundedInstance is the instance search every bounded checker
// runs on: it enumerates each instance over the merged input schema of
// the queries with values from one universe — their constants in
// ascending order, then universeSize fresh values in ascending order —
// by ascending fact mask. A checker that merges the schemas of the
// queries it compares must search with the constants of all of them: a
// constant left out of the universe is in no enumerated instance, and a
// counterexample that needs it is missed. Every call of fn gets a fresh
// instance it may keep.
func EachBoundedInstance(qs []*CQ, universeSize int, fn func(*rel.Instance) bool) error {
	schema, err := unionSchema(qs)
	if err != nil {
		return err
	}
	return EachInstance(schema, buildUniverse(universeSize, qs), fn)
}

// ContainedNegBounded searches for a counterexample to Q ⊆ Q′ over all
// instances whose values are drawn from a universe of the given size.
// It returns (true, nil) when no counterexample exists within the
// bound, and (false, I) with a witness instance otherwise. Queries may
// freely use negation and inequalities; constants in the queries are
// automatically included in the universe.
func ContainedNegBounded(q, qp *CQ, universeSize int) (bool, *rel.Instance, error) {
	var witness *rel.Instance
	err := EachBoundedInstance([]*CQ{q, qp}, universeSize, func(i *rel.Instance) bool {
		if !Output(q, i).SubsetOf(Output(qp, i)) {
			witness = i
		}
		return witness == nil
	})
	if err != nil {
		return false, nil, err
	}
	return witness == nil, witness, nil
}

// unionSchema merges the input schemas of the queries.
func unionSchema(qs []*CQ) (rel.Schema, error) {
	s := rel.Schema{}
	for _, q := range qs {
		sub, err := q.Schema()
		if err != nil {
			return nil, err
		}
		for r, a := range sub {
			if err := s.Declare(r, a); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// buildUniverse returns the universe of the bounded searches: every
// constant mentioned by the queries, ascending, then `size` fresh
// values, ascending.
func buildUniverse(size int, qs []*CQ) []rel.Value {
	consts := make(rel.ValueSet)
	for _, q := range qs {
		consts.AddAll(q.Constants())
	}
	out := consts.Sorted()
	next := rel.Value(0)
	for len(out) < size+len(consts) {
		if !consts.Contains(next) {
			out = append(out, next)
		}
		next++
	}
	return out
}
