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
func tcSteps(graph *rel.Instance) int {
	type pair [2]rel.Value
	succ := make(map[rel.Value][]rel.Value)
	tc := make(map[pair]struct{})
	var delta []pair
	if e := graph.Relation("E"); e != nil {
		e.Each(func(t rel.Tuple) bool {
			succ[t[0]] = append(succ[t[0]], t[1])
			tc[pair{t[0], t[1]}] = struct{}{}
			delta = append(delta, pair{t[0], t[1]})
			return true
		})
	}
	steps := 1
	for ; len(delta) > 0; steps++ {
		var next []pair
		for _, d := range delta {
			for _, c := range succ[d[1]] {
				if _, old := tc[pair{d[0], c}]; !old {
					tc[pair{d[0], c}] = struct{}{}
					next = append(next, pair{d[0], c})
				}
			}
		}
		delta = next
	}
	return steps
}
