package pc

import (
	"fmt"

	"mpclogic/internal/cq"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// This file implements the bounded exact procedures for
// parallel-correctness of (unions of) conjunctive queries with
// negation. Because CQ¬ is not monotone, correctness splits into
// parallel-soundness ([Q,P](I) ⊆ Q(I)) and parallel-completeness
// (Q(I) ⊆ [Q,P](I)) — see Theorem 4.9, where the combined problem is
// coNEXPTIME-complete and counterexamples can be exponentially large.
// The procedure below searches all instances over a bounded universe
// (cq.EachBoundedInstance, the search GeneralizedCorrectBounded,
// MultiRoundCorrectBounded and cq.ContainedNegBounded run on too); it
// is exact relative to that bound, which is the inherent shape of any
// exact algorithm for a coNEXPTIME-complete problem.

// NegReport is the outcome of a bounded CQ¬ correctness check.
type NegReport struct {
	Sound       bool
	Complete    bool
	SoundCex    *rel.Instance // witness instance violating soundness
	CompleteCex *rel.Instance
}

// Correct reports overall parallel-correctness.
func (r *NegReport) Correct() bool { return r.Sound && r.Complete }

func (r *NegReport) String() string {
	return fmt.Sprintf("sound=%v complete=%v", r.Sound, r.Complete)
}

// ParallelCorrectNegBounded checks parallel-soundness and
// -completeness of a CQ¬ under p for every instance over a universe
// of the given size (plus the query's constants).
func ParallelCorrectNegBounded(q *cq.CQ, p policy.Policy, universeSize int) (*NegReport, error) {
	return ParallelCorrectUCQNegBounded(single(q), p, universeSize)
}

// ParallelCorrectUCQNegBounded is the UCQ¬ form: cq's instance search
// over the disjuncts, comparing Q(I) with [Q,P](I) in both directions
// until each has failed once.
func ParallelCorrectUCQNegBounded(u *cq.UCQ, p policy.Policy, universeSize int) (*NegReport, error) {
	rep := &NegReport{Sound: true, Complete: true}
	err := cq.EachBoundedInstance(u.Disjuncts, universeSize, func(i *rel.Instance) bool {
		want := cq.OutputUCQ(u, i)
		got := DistributedEvalUCQ(u, p, i)
		if rep.Sound && !got.SubsetOf(want) {
			rep.Sound = false
			rep.SoundCex = i
		}
		if rep.Complete && !want.SubsetOf(got) {
			rep.Complete = false
			rep.CompleteCex = i
		}
		return rep.Sound || rep.Complete
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}
