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
// Proposition 4.13); package pc runs both on the one enumerator here.
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
// W only needs values from adom(V(body_q)): every variable of a safe
// disjunct occurs in a positive atom, and W's facts lie in V(body_q).
// (The disjuncts' constants need not join the universe — valuations map
// variables only.) The check is therefore instance- and
// universe-independent.
func (u *UCQ) IsMinimal(q *CQ, v Valuation) bool {
	required := v.RequiredInstance(q)
	head := v.Derives(q)
	universe := required.ADom().Sorted()
	for _, qj := range u.Disjuncts {
		if !u.EachValuation(qj, universe, false, func(w Valuation) bool {
			if !w.Derives(qj).Equal(head) {
				return true
			}
			wReq := w.RequiredInstance(qj)
			return !(wReq.SubsetOf(required) && wReq.Len() < required.Len())
		}) {
			return false
		}
	}
	return true
}

// EachValuation is the valuation search: it streams the valuations of
// disjunct q over universe that satisfy q's inequalities — only the
// union-minimal ones when minimalOnly — in q.Vars() order over the
// universe as given, and stops early when fn returns false. It reports
// whether the enumeration ran to the end. The valuation passed to fn is
// reused across calls; clone it to keep. The cost is
// |universe|^|vars(q)| valuation checks; this exponential behaviour is
// inherent (Theorem 4.8: the related decision problems are
// Πᵖ₂-complete).
func (u *UCQ) EachValuation(q *CQ, universe []rel.Value, minimalOnly bool, fn func(Valuation) bool) bool {
	done := true
	AllValuations(q.Vars(), universe, func(v Valuation) bool {
		if v.SatisfiesDiseq(q) && (!minimalOnly || u.IsMinimal(q, v)) {
			done = fn(v)
		}
		return done
	})
	return done
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
