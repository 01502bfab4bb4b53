package pc

import (
	"fmt"

	"mpclogic/internal/cq"
	"mpclogic/internal/rel"
)

// This file implements parallel-correctness transfer (Section 4.2).
// Transfer from Q to Q′ holds iff Q covers Q′ (Proposition 4.13):
// every minimal valuation V′ for Q′ is dominated by a minimal valuation
// V for Q with V′(body_Q′) ⊆ V(body_Q). Deciding transfer is
// Πᵖ₃-complete (Theorem 4.14), and stays so for unions with "minimal"
// read as "union-minimal" ([Ameloot et al.]'s journal version); the one
// procedure below, covers, is the canonical exponential search in the
// union form, made exact by the isomorphism argument: it suffices to
// check the valuations V′ of each target disjunct over |vars(Q′)| fresh
// values (plus all constants), and for each to search V over
// adom(V′(body)) ∪ constants ∪ |vars(Q)| fresh values. Covers,
// CoversUCQ and CoversFull are its three entry points.

// CoverWitness explains a transfer failure: a minimal valuation of the
// target query that no minimal valuation of the source covers.
type CoverWitness struct {
	Valuation cq.Valuation // minimal valuation V′ for Q′
	Facts     []rel.Fact   // V′(body_Q′)
}

func (w *CoverWitness) String() string {
	return fmt.Sprintf("minimal valuation %v (requiring %v) is not covered", w.Valuation, w.Facts)
}

// covers searches for a valuation of a disjunct of up that no valuation
// of any disjunct of u covers — over the union-minimal valuations of
// both sides when minimalOnly, over all of them otherwise — and returns
// the first one in disjunct then enumeration order, or nil when u
// covers up. Neither union may have negated atoms; the entry points
// refuse them.
func covers(u, up *cq.UCQ, minimalOnly bool) *CoverWitness {
	consts := make(rel.ValueSet)
	for _, side := range []*cq.UCQ{u, up} {
		for _, q := range side.Disjuncts {
			consts.AddAll(q.Constants())
		}
	}
	var w *CoverWitness
	for _, qp := range up.Disjuncts {
		// Universe for the valuations of Q′: one fresh value per
		// variable plus all constants.
		uPrime := freshUniverse(consts, len(qp.Vars()))
		if !up.EachValuation(qp, uPrime, minimalOnly, func(vp cq.Valuation) bool {
			target := vp.RequiredInstance(qp)
			// Universe for the covering valuation: values of the target
			// facts, all constants, and enough fresh values for Q's
			// variables.
			base := target.ADom().Union(consts)
			for _, q := range u.Disjuncts {
				uQ := freshUniverse(base, len(q.Vars()))
				if !u.EachValuation(q, uQ, minimalOnly, func(v cq.Valuation) bool {
					return !target.SubsetOf(v.RequiredInstance(q))
				}) {
					return true // covered
				}
			}
			w = &CoverWitness{Valuation: vp.Clone(), Facts: vp.RequiredFacts(qp)}
			return false
		}) {
			break
		}
	}
	return w
}

// Covers decides whether Q covers Q′ (Definition 4.12), equivalently
// whether parallel-correctness transfers from Q to Q′. It always runs
// the minimality checks; CoversFull is a separate entry point, not a
// path Covers selects for full queries, because the ablation benchmark
// prices the two against each other.
func Covers(q, qp *cq.CQ) (bool, *CoverWitness, error) {
	if q.HasNegation() || qp.HasNegation() {
		return false, nil, fmt.Errorf("pc: covers is defined for CQs without negation")
	}
	w := covers(single(q), single(qp), true)
	return w == nil, w, nil
}

// Transfers decides whether parallel-correctness transfers from Q to
// Q′ (Definition 4.10), via Proposition 4.13.
func Transfers(q, qp *cq.CQ) (bool, *CoverWitness, error) {
	return Covers(q, qp)
}

// freshUniverse returns the values of base plus n fresh values not in
// base, in sorted order.
func freshUniverse(base rel.ValueSet, n int) []rel.Value {
	out := make(rel.ValueSet, len(base)+n)
	out.AddAll(base)
	next := rel.Value(1_000_000) // comfortably clear of test data
	for added := 0; added < n; next++ {
		if !out.Contains(next) {
			out.Add(next)
			added++
		}
	}
	return out.Sorted()
}

// CoversUCQ decides parallel-correctness transfer between unions of
// conjunctive queries: the union-minimal valuations of the target must
// each be dominated by a union-minimal valuation of the source.
func CoversUCQ(u, up *cq.UCQ) (bool, *CoverWitness, error) {
	if u.HasNegation() || up.HasNegation() {
		return false, nil, fmt.Errorf("pc: covers is defined for unions without negation")
	}
	w := covers(u, up, true)
	return w == nil, w, nil
}

// TransfersUCQ decides transfer between unions via CoversUCQ.
func TransfersUCQ(u, up *cq.UCQ) (bool, *CoverWitness, error) {
	return CoversUCQ(u, up)
}
