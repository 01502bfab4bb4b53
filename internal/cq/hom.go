package cq

import (
	"fmt"

	"mpclogic/internal/rel"
)

// This file implements homomorphism-based containment for conjunctive
// queries (the Chandra-Merlin classic): Q ⊆ Q′ iff there is a
// homomorphism from Q′ to Q, iff Q′ derives the frozen head on the
// canonical instance of Q. Used by the Figure 1 experiment, which
// contrasts containment with parallel-correctness transfer.

// frozen maps the variables of q to fresh values not colliding with the
// query's constants and returns the canonical instance plus the frozen
// head fact.
func frozen(q *CQ) (*rel.Instance, rel.Fact) {
	maxc := rel.Value(0)
	for c := range q.Constants() {
		if c >= maxc {
			maxc = c + 1
		}
	}
	v := make(Valuation)
	next := maxc
	for _, name := range q.Vars() {
		v[name] = next
		next++
	}
	inst := rel.NewInstance()
	for _, a := range q.Body {
		inst.Add(v.Apply(a))
	}
	return inst, v.Derives(q)
}

// Contained decides Q ⊆ Q′ for pure conjunctive queries (no negation,
// no inequalities on either side): UCQContained of two unions of one.
// Queries whose heads disagree in relation or arity are not contained.
func Contained(q, qp *CQ) (bool, error) {
	if q.HasNegation() || qp.HasNegation() {
		return false, fmt.Errorf("cq: Contained does not handle negation; use ContainedNegBounded")
	}
	if q.HasDiseq() || qp.HasDiseq() {
		return false, fmt.Errorf("cq: Contained does not handle inequalities")
	}
	return UCQContained(single(q), single(qp))
}

// Equivalent decides Q ≡ Q′ for pure conjunctive queries.
func Equivalent(q, qp *CQ) (bool, error) {
	a, err := Contained(q, qp)
	if err != nil || !a {
		return a, err
	}
	return Contained(qp, q)
}

// UCQContained decides U ⊆ U′ for unions of pure CQs: every disjunct of
// U must be contained in the union U′, which by the classical argument
// reduces to: the canonical instance of each disjunct makes some
// disjunct of U′ derive the frozen head.
func UCQContained(u, up *UCQ) (bool, error) {
	for _, q := range u.Disjuncts {
		if q.HasNegation() || q.HasDiseq() {
			return false, fmt.Errorf("cq: UCQContained handles pure CQ disjuncts only")
		}
	}
	for _, qp := range up.Disjuncts {
		if qp.HasNegation() || qp.HasDiseq() {
			return false, fmt.Errorf("cq: UCQContained handles pure CQ disjuncts only")
		}
	}
	for _, q := range u.Disjuncts {
		canon, head := frozen(q)
		ok := false
		for _, qp := range up.Disjuncts {
			if qp.Head.Rel != head.Rel || len(qp.Head.Args) != len(head.Tuple) {
				continue
			}
			if Evaluate(qp, canon).Contains(head.Tuple) {
				ok = true
				break
			}
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}
