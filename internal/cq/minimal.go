package cq

import (
	"fmt"

	"mpclogic/internal/rel"
)

// This file implements minimal valuations (Definition 4.4) in their
// union form: a valuation V for disjunct Qi of a union is union-minimal
// if no valuation W for any disjunct Qj derives the same head fact from
// a strict subset of V's required facts ([Geck et al., ICDT 2016]). A
// conjunctive query is a union of one, so Definition 4.4 is the
// one-disjunct case and the CQ entry points below are one-disjunct
// calls. Minimal valuations are the key to the semantic
// characterization of parallel-correctness (Proposition 4.6) and of
// parallel-correctness transfer via "covers" (Definition 4.12,
// Proposition 4.13); package pc runs both on the one search here
// (search.go).
//
// For queries with inequalities, valuations must satisfy the
// inequalities to count (the "suitable definition" of [Geck et al.] the
// paper refers to). Queries with negated atoms have no meaningful
// notion of minimal valuation; the searches ignore negated atoms, and
// every entry point — IsMinimal, EachMinimalValuation, MinimalValuations
// and pc's saturation and covers procedures — refuses CQ¬ before it
// searches.

// IsMinimal reports whether v, a valuation for disjunct q of u that
// satisfies q's inequalities, is union-minimal. A dominating valuation
// W maps every body atom of its disjunct onto a fact of V(body_q), so
// the check matches atoms against those facts (search.go) and is
// instance- and universe-independent.
func (u *UCQ) IsMinimal(q *CQ, v Valuation) bool {
	s := NewSearch(u)
	d := s.disjunct(q)
	vals := make([]rel.Value, len(d.vars))
	for i, name := range d.vars {
		vals[i] = v.ApplyTerm(V(name))
	}
	facts := d.image(vals, make([]rel.Fact, 0, len(d.body)), make([]rel.Value, 0, d.arity))
	return s.minimal(facts, d.headOf(vals, nil))
}

// EachValuation is the valuation search with a Valuation per visit: it
// streams the valuations of disjunct q over universe that satisfy q's
// inequalities — only the union-minimal ones when minimalOnly — in
// q.Vars() order over the universe as given, and stops early when fn
// returns false. It reports whether the enumeration ran to the end. The
// valuation passed to fn is reused across calls; clone it to keep.
func (u *UCQ) EachValuation(q *CQ, universe []rel.Value, minimalOnly bool, fn func(Valuation) bool) bool {
	s := NewSearch(u)
	d := s.disjunct(q)
	v := make(Valuation, len(d.vars))
	return s.each(d, universe, nil, minimalOnly, func(p *Point) bool {
		for i, name := range d.vars {
			v[name] = p.vals[i]
		}
		return fn(v)
	})
}

// IsMinimal reports whether the valuation v (total on vars(Q), and
// satisfying the inequalities of Q) is minimal for Q.
func IsMinimal(q *CQ, v Valuation) (bool, error) {
	if q.HasNegation() {
		return false, fmt.Errorf("cq: minimal valuations undefined for CQ¬")
	}
	if !v.SatisfiesDiseq(q) {
		return false, fmt.Errorf("cq: valuation violates inequalities of the query")
	}
	return single(q).IsMinimal(q, v), nil
}

// MinimalValuations collects all minimal valuations for Q over the
// given universe.
func MinimalValuations(q *CQ, universe []rel.Value) ([]Valuation, error) {
	var out []Valuation
	err := EachMinimalValuation(q, universe, func(v Valuation) bool {
		out = append(out, v.Clone())
		return true
	})
	return out, err
}

// EachMinimalValuation streams minimal valuations for Q over universe;
// iteration stops early when fn returns false. The valuation passed to
// fn is owned by the callee only for the duration of the call.
func EachMinimalValuation(q *CQ, universe []rel.Value, fn func(Valuation) bool) error {
	if q.HasNegation() {
		return fmt.Errorf("cq: minimal valuations undefined for CQ¬")
	}
	single(q).EachValuation(q, universe, true, fn)
	return nil
}
