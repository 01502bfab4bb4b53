package gym

import (
	"fmt"

	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
)

// Transitive closure as a statically unrolled naive program, the twin
// of the semi-naive loop DeltaTCProgram (delta.go): a []mpc.Round has no
// loop, so its length is fixed up front from the input graph.

// tcCompute is one semi-naive-free TC step: the new state keeps
// everything received, seeds TC from E, and extends it by one E-edge.
// Routing colocates TC(a,b) and E(b,c) at h(b), so the join is local.
func tcCompute(_ int, local *rel.Instance) *rel.Instance {
	out := rel.NewInstance()
	out.AddAll(local)
	e := local.Relation("E")
	if e == nil {
		return out
	}
	e.Each(func(t rel.Tuple) bool {
		out.Add(rel.NewFact("TC", t[0], t[1]))
		return true
	})
	if tc := local.Relation("TC"); tc != nil {
		rel.HashJoin("⋈", tc, e, []int{1}, []int{0}).Each(func(t rel.Tuple) bool {
			out.Add(rel.NewFact("TC", t[0], t[3]))
			return true
		})
	}
	return out
}

// TCProgram unrolls naive transitive closure to its fixpoint depth on
// the given graph: each round routes E by source and TC by target to
// colocate one join step. The depth is a pure function of the graph
// (tcSteps), so the static program is a pure function of (p, seed,
// graph) and every process derives the identical round list.
func TCProgram(p int, seed uint64, graph *rel.Instance) []mpc.Round {
	steps := tcSteps(graph)
	rounds := make([]mpc.Round, steps)
	for i := range rounds {
		rounds[i] = mpc.Round{
			Name: fmt.Sprintf("tc-step-%d", i),
			Route: mpc.ByRelation(map[string]mpc.Router{
				"E":  mpc.HashOn(p, []int{0}, seed),
				"TC": mpc.HashOn(p, []int{1}, seed),
			}),
			Compute: tcCompute,
		}
	}
	return rounds
}

// tcSteps counts the rounds the unrolled program needs on a graph of E
// edges: global applications of tcCompute until one adds nothing (that
// final confirming step included, mirroring a fixpoint engine's last
// pass). The program is rebuilt on the coordinator and on every worker
// of a distributed run, so the count is taken semi-naively rather than
// by running tcCompute: step 1 adds Δ₁ = E, step s > 1 adds
// Δₛ = (Δₛ₋₁ ⋈ E) ∖ TC — everything else tcCompute would derive at
// step s it derived before — and the answer is the first s with Δₛ = ∅.
//
// E's successors come from a transient join index on its source column,
// which writes nothing to the graph, and the closure so far is a
// relation whose Add reports newness; the frontier is flat (a, b) value
// pairs, two buffers swapped between steps.
func tcSteps(graph *rel.Instance) int {
	e := graph.Relation("E")
	if e == nil {
		return 1
	}
	succ := rel.NewIndex(e, []int{0}, nil)
	tc := rel.NewRelationSize("TC", 2, e.Len())
	delta := make([]rel.Value, 0, 2*e.Len())
	var next []rel.Value
	e.Each(func(t rel.Tuple) bool {
		tc.Add(t)
		delta = append(delta, t[0], t[1])
		return true
	})
	pair := make(rel.Tuple, 2)
	steps := 1
	for ; len(delta) > 0; steps++ {
		next = next[:0]
		for i := 0; i < len(delta); i += 2 {
			pair[0] = delta[i]
			succ.Probe(rel.Tuple(delta[i+1:i+2]), []int{0}, func(c rel.Tuple) bool {
				pair[1] = c[1]
				if tc.Add(pair) {
					next = append(next, pair[0], pair[1])
				}
				return true
			})
		}
		delta, next = next, delta
	}
	return steps
}
