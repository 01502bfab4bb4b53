package pc

import (
	"fmt"

	"mpclogic/internal/cq"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// This file implements the research directions Section 6 of the paper
// sketches for the parallel-correctness framework:
//
//   - the tractable case of transfer for full queries ([14,15] lower
//     the complexity from Πᵖ₃; for full queries every valuation is
//     minimal, so the minimality checks vanish),
//   - generalized one-round evaluation where each node may run its own
//     query and results are combined by an aggregator other than plain
//     union,
//   - a correctness checker for multi-round algorithms, phrased over
//     bounded instance spaces.

// CoversFull decides covers (hence transfer) for two FULL conjunctive
// queries without the minimality machinery: a full query's head binds
// every variable, so two valuations derive the same head fact only if
// they are equal — every valuation is minimal, and the covers search
// runs over all of them. This is the tractable fragment the paper
// mentions after Theorem 4.14.
func CoversFull(q, qp *cq.CQ) (bool, *CoverWitness, error) {
	if !q.IsFull() || !qp.IsFull() {
		return false, nil, fmt.Errorf("pc: CoversFull requires full queries")
	}
	if q.HasNegation() || qp.HasNegation() {
		return false, nil, fmt.Errorf("pc: covers is defined for CQs without negation")
	}
	w := covers(single(q), single(qp), false)
	return w == nil, w, nil
}

// Aggregator combines the per-node results of a generalized one-round
// evaluation. Union is the paper's default; Intersection models
// consensus-style combination.
type Aggregator func(results []*rel.Instance) *rel.Instance

// UnionAgg is the standard union aggregator.
func UnionAgg(results []*rel.Instance) *rel.Instance {
	out := rel.NewInstance()
	for _, r := range results {
		out.AddAll(r)
	}
	return out
}

// IntersectionAgg keeps only facts computed by every node.
func IntersectionAgg(results []*rel.Instance) *rel.Instance {
	if len(results) == 0 {
		return rel.NewInstance()
	}
	out := results[0].Clone()
	for _, r := range results[1:] {
		out = out.Filter(func(f rel.Fact) bool { return r.Contains(f) })
	}
	return out
}

// GeneralizedEval is [Q̄, P, agg](I): node κ evaluates queries[κ] (or
// queries[0] if a single query is given) on its local instance, and
// the aggregator combines the node results — the "more complex
// aggregator functions than union / different query per node"
// generalization of Section 6.
func GeneralizedEval(queries []*cq.CQ, agg Aggregator, p policy.Policy, i *rel.Instance) (*rel.Instance, error) {
	n := p.NumNodes()
	if len(queries) != 1 && len(queries) != n {
		return nil, fmt.Errorf("pc: want 1 or %d queries, got %d", n, len(queries))
	}
	results := make([]*rel.Instance, n)
	for κ, local := range policy.Distribute(p, i) {
		q := queries[0]
		if len(queries) == n {
			q = queries[κ]
		}
		results[κ] = cq.Output(q, local)
	}
	return agg(results), nil
}

// GeneralizedCorrectOn checks whether the generalized evaluation
// computes the reference query on one instance.
func GeneralizedCorrectOn(ref *cq.CQ, queries []*cq.CQ, agg Aggregator, p policy.Policy, i *rel.Instance) (bool, error) {
	got, err := GeneralizedEval(queries, agg, p, i)
	if err != nil {
		return false, err
	}
	return got.Equal(cq.Output(ref, i)), nil
}

// GeneralizedCorrectBounded checks the generalized evaluation against
// the reference query on every instance over a bounded universe (plus
// the constants of the reference and of every node's query).
func GeneralizedCorrectBounded(ref *cq.CQ, queries []*cq.CQ, agg Aggregator, p policy.Policy, universeSize int) (bool, *rel.Instance, error) {
	return boundedCounterexample(append([]*cq.CQ{ref}, queries...), universeSize, func(i *rel.Instance) (bool, error) {
		return GeneralizedCorrectOn(ref, queries, agg, p, i)
	})
}

// boundedCounterexample runs cq's instance search over the queries and
// returns the first instance on which holds fails, or holds' error.
func boundedCounterexample(qs []*cq.CQ, universeSize int, holds func(*rel.Instance) (bool, error)) (bool, *rel.Instance, error) {
	var cex *rel.Instance
	var holdsErr error
	err := cq.EachBoundedInstance(qs, universeSize, func(i *rel.Instance) bool {
		ok, err := holds(i)
		switch {
		case err != nil:
			holdsErr = err
		case !ok:
			cex = i
		}
		return holdsErr == nil && cex == nil
	})
	if err == nil {
		err = holdsErr
	}
	if err != nil {
		return false, nil, err
	}
	return cex == nil, cex, nil
}
