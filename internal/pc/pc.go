// Package pc implements the parallel-correctness framework of
// Section 4 (Ameloot, Geck, Ketsman, Neven, Schwentick; PODS 2015):
//
//   - the distributed one-round evaluation [Q,P](I),
//   - parallel-correctness on one instance (problem PCI) and on all
//     instances (problem PC),
//   - the saturation conditions (PC0) and (PC1) and the
//     characterization of Proposition 4.6,
//   - parallel-correctness transfer and its "covers" characterization
//     (Definitions 4.10/4.12, Proposition 4.13),
//   - unions of CQs, and bounded exact procedures for CQ¬ where
//     correctness splits into parallel-soundness and completeness
//     (Theorem 4.9).
//
// The decision procedures are exponential-time searches; Theorems 4.8,
// 4.9 and 4.14 place the problems at Πᵖ₂, coNEXPTIME and Πᵖ₃, so this
// is the canonical shape of an exact implementation.
//
// Each notion has one body, in its union form — the extension to unions
// changes one word, "minimal" to "union-minimal" — and a conjunctive
// query is a union of one. Two searches from package cq lie underneath:
// the valuation search (cq.Search; (*cq.UCQ).EachValuation is its form
// with a Valuation per visit) under saturates (PC0, PC1) and covers
// (transfer), and the instance search
// (cq.EachBoundedInstance) under every bounded checker. The CQ entry
// points (DistributedEval, Saturates, StronglySaturates, Covers,
// CoversFull, ParallelCorrectNegBounded) keep their own refusals and
// error texts and hold no loop.
package pc

import (
	"fmt"

	"mpclogic/internal/cq"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// single is q as a union of one.
func single(q *cq.CQ) *cq.UCQ { return &cq.UCQ{Disjuncts: []*cq.CQ{q}} }

// DistributedEval computes [Q,P](I): the union over all nodes κ of
// Q(loc-inst_{P,I}(κ)) — Section 4.1.
func DistributedEval(q *cq.CQ, p policy.Policy, i *rel.Instance) *rel.Instance {
	return DistributedEvalUCQ(single(q), p, i)
}

// DistributedEvalUCQ computes [Q,P](I) for a union of CQs. It is not
// shared with GeneralizedEval, which runs a query per node under an
// aggregator: one loop serving both would branch on its caller.
func DistributedEvalUCQ(u *cq.UCQ, p policy.Policy, i *rel.Instance) *rel.Instance {
	out := rel.NewInstance()
	h := u.Disjuncts[0].Head
	out.EnsureRelation(h.Rel, len(h.Args))
	for _, local := range policy.Distribute(p, i) {
		out.AddAll(cq.OutputUCQ(u, local))
	}
	return out
}

// ParallelCorrectOn decides problem PCI for a single instance:
// Q(I) = [Q,P](I). It works for any CQ extension since it evaluates
// directly.
func ParallelCorrectOn(q *cq.CQ, p policy.Policy, i *rel.Instance) bool {
	return cq.Output(q, i).Equal(DistributedEval(q, p, i))
}

// Witness explains a saturation failure: a valuation whose required
// facts meet at no node.
type Witness struct {
	Valuation cq.Valuation
	Facts     []rel.Fact
}

func (w *Witness) String() string {
	return fmt.Sprintf("valuation %v requires %v which meet at no node", w.Valuation, w.Facts)
}

// universeOf resolves the universe for a decision: an explicit one wins;
// otherwise the policy must implement policy.Universed.
func universeOf(p policy.Policy, explicit []rel.Value) ([]rel.Value, error) {
	if explicit != nil {
		return explicit, nil
	}
	if u, ok := p.(policy.Universed); ok {
		return u.Universe(), nil
	}
	return nil, fmt.Errorf("pc: policy carries no universe; pass one explicitly")
}

// saturates is conditions (PC0) and (PC1) in their one body: every
// valuation of every disjunct over the universe — every union-minimal
// one when minimalOnly — must have its required facts meet at some
// node. It returns the first valuation, in disjunct then enumeration
// order, whose facts meet nowhere. A nil universe defers to the
// policy's.
func saturates(u *cq.UCQ, p policy.Policy, universe []rel.Value, minimalOnly bool) (bool, *Witness, error) {
	universe, err := universeOf(p, universe)
	if err != nil {
		return false, nil, err
	}
	var w *Witness
	for _, q := range u.Disjuncts {
		if !u.EachValuation(q, universe, minimalOnly, func(v cq.Valuation) bool {
			facts := v.RequiredFacts(q)
			if !policy.MeetsAtSomeNode(p, facts) {
				w = &Witness{Valuation: v.Clone(), Facts: facts}
			}
			return w == nil
		}) {
			break
		}
	}
	return w == nil, w, nil
}

// StronglySaturates decides condition (PC0): every valuation for Q over
// the universe has its required facts meet at some node. PC0 is
// sufficient but not necessary for parallel-correctness (Example 4.3).
// A nil universe defers to the policy's.
func StronglySaturates(q *cq.CQ, p policy.Policy, universe []rel.Value) (bool, *Witness, error) {
	if q.HasNegation() {
		return false, nil, fmt.Errorf("pc: (PC0) is defined for CQs without negation")
	}
	return saturates(single(q), p, universe, false)
}

// Saturates decides condition (PC1): every minimal valuation for Q over
// the universe has its required facts meet at some node. By
// Proposition 4.6 this is equivalent to parallel-correctness of Q
// under P.
func Saturates(q *cq.CQ, p policy.Policy, universe []rel.Value) (bool, *Witness, error) {
	if q.HasNegation() {
		return false, nil, fmt.Errorf("pc: (PC1) is defined for CQs without negation; use the bounded CQ¬ procedures")
	}
	return saturates(single(q), p, universe, true)
}

// ParallelCorrect decides problem PC for a CQ (optionally with
// inequalities) via Proposition 4.6.
func ParallelCorrect(q *cq.CQ, p policy.Policy, universe []rel.Value) (bool, *Witness, error) {
	return Saturates(q, p, universe)
}
