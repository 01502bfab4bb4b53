package pc

import (
	"mpclogic/internal/cq"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
)

// Section 6 asks for the parallel-correctness framework to be
// generalized "towards evaluation algorithms that comprise several
// rounds". This file provides the semantic side of that
// generalization: a bounded-exact checker deciding whether a
// multi-round MPC algorithm computes a reference query on every
// instance over a finite universe, together with the per-instance
// check. The static-analysis side (a PC1-style characterization for
// multiple rounds) is open in the literature; the checker gives the
// ground truth such a characterization would have to match.

// MultiRoundAlgorithm produces the rounds of an MPC algorithm for a
// given cluster size. It is a factory because routers may close over
// per-run salt.
type MultiRoundAlgorithm func(p int) []mpc.Round

// multiRoundCorrectFrom runs the algorithm on one instance over p
// servers, loaded round-robin starting at server rot, and compares the
// facts of the reference query's head relation against the centralized
// result.
func multiRoundCorrectFrom(ref *cq.CQ, algo MultiRoundAlgorithm, p int, i *rel.Instance, rot int) (bool, error) {
	c := mpc.NewCluster(p)
	loadRotated(c, i, rot)
	if err := c.Run(algo(p)...); err != nil {
		return false, err
	}
	got := c.Output().Filter(func(f rel.Fact) bool { return f.Rel == ref.Head.Rel })
	return got.Equal(cq.Output(ref, i)), nil
}

// MultiRoundCorrectBounded checks the algorithm on every instance over
// a bounded universe, returning a counterexample when one exists.
// Initial placement matters for multi-round algorithms, so every
// rotation of the round-robin placement is tried as well.
func MultiRoundCorrectBounded(ref *cq.CQ, algo MultiRoundAlgorithm, p int, universeSize int) (bool, *rel.Instance, error) {
	return boundedCounterexample([]*cq.CQ{ref}, universeSize, func(i *rel.Instance) (bool, error) {
		for rot := 0; rot < p; rot++ {
			if ok, err := multiRoundCorrectFrom(ref, algo, p, i, rot); err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	})
}

// loadRotated is Cluster.LoadRoundRobin with the deal starting at
// server rot, exercising different initial placements.
func loadRotated(c *mpc.Cluster, i *rel.Instance, rot int) {
	parts := make([]*rel.Instance, c.P())
	for s := range parts {
		parts[s] = rel.NewInstance()
	}
	mpc.DealRoundRobin(i, parts, rot)
	for s, part := range parts {
		c.LoadAt(s, part)
	}
}
