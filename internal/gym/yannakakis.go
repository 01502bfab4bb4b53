// Package gym implements the multi-round algorithms of Section 3.2 of
// Neven (PODS 2016): Yannakakis' algorithm for acyclic conjunctive
// queries (semi-join full reduction followed by a join phase whose
// intermediate results never exceed the final output by more than the
// per-node inputs), the GYM generalization that evaluates a tree
// decomposition of a cyclic query — each bag via the Shares/HyperCube
// algorithm, the bag tree via Yannakakis — and the cascaded binary
// join baseline of Example 3.1(2).
//
// Yannakakis' schedule is planned once (planYannakakis, plan.go: the
// join tree, the semijoin and join steps in execution order, the
// columns each join keeps) and interpreted twice: YannakakisWith folds
// the steps over in-memory relations, YannakakisProgram (and through it
// GYMProgram, over the bag tree) emits one MPC round per step.
//
// The package builds programs — round lists that are pure data — and
// never a cluster: mpc.Simulate runs them (Cluster.RunDelta the delta
// programs), and core.Menu names those that can be run from a name.
package gym

import (
	"fmt"
	"sort"

	"mpclogic/internal/cq"
	"mpclogic/internal/rel"
)

// Stats tracks the cost profile of a centralized evaluation: the
// largest materialized intermediate relation and the operation counts.
type Stats struct {
	MaxIntermediate int
	Semijoins       int
	Joins           int
}

// nodeRelation materializes the tuples of an atom from the instance as
// a relation over the atom's distinct variables (applying constant and
// repeated-variable selections).
func nodeRelation(a cq.Atom, i *rel.Instance, name string) (*rel.Relation, []string) {
	m := cq.NewMatcher(a)
	out := rel.NewRelation(name, len(m.Vars))
	if src := m.Relation(i); src != nil {
		src.Each(func(t rel.Tuple) bool {
			if m.Admits(t) {
				out.Add(t.Project(m.Cols))
			}
			return true
		})
	}
	return out, m.Vars
}

// Yannakakis evaluates an acyclic pure CQ: full reduction by
// semijoins (bottom-up then top-down over the GYO join tree), then a
// bottom-up join phase that projects away variables as soon as they
// are no longer needed. It returns the result relation and the cost
// stats.
func Yannakakis(q *cq.CQ, inst *rel.Instance) (*rel.Relation, *Stats, error) {
	return YannakakisWith(q, inst, true)
}

// YannakakisWith optionally skips the semijoin full-reduction phases —
// the ablation showing what the reduction buys: without it, dangling
// tuples survive into the join phase and intermediates grow even
// though the early projection discipline is unchanged. It is the
// in-memory interpreter of planYannakakis' schedule: the steps fold
// over one relation per join-tree node.
func YannakakisWith(q *cq.CQ, inst *rel.Instance, fullReduction bool) (*rel.Relation, *Stats, error) {
	if q.HasNegation() || q.HasDiseq() {
		return nil, nil, fmt.Errorf("gym: Yannakakis implemented for pure CQs")
	}
	plan, ok := planYannakakis(q, fullReduction)
	if !ok {
		return nil, nil, fmt.Errorf("gym: query %v is cyclic; use a tree decomposition (GYM)", q)
	}
	rels := make([]*rel.Relation, len(q.Body))
	for i, a := range q.Body {
		rels[i], _ = nodeRelation(a, inst, yname(i))
	}
	st := &Stats{}
	for _, s := range plan.steps {
		rels[s.dst] = s.apply(rels[s.dst], rels[s.src])
		if !s.join {
			st.Semijoins++
			continue
		}
		st.Joins++
		if n := rels[s.dst].Len(); n > st.MaxIntermediate {
			st.MaxIntermediate = n
		}
	}
	return projectHead(q, rels[plan.root], plan.rootVars), st, nil
}

// CascadeJoin is the baseline of Example 3.1(2): evaluate the body as
// a cascade of pairwise joins in syntactic order with no semijoin
// reduction and no early projection, tracking the intermediate sizes.
func CascadeJoin(q *cq.CQ, inst *rel.Instance) (*rel.Relation, *Stats, error) {
	if q.HasNegation() || q.HasDiseq() {
		return nil, nil, fmt.Errorf("gym: CascadeJoin implemented for pure CQs")
	}
	st := &Stats{}
	acc, accVars := nodeRelation(q.Body[0], inst, "C0")
	for k := 1; k < len(q.Body); k++ {
		nr, nv := nodeRelation(q.Body[k], inst, fmt.Sprintf("C%d", k))
		ac, nc := sharedCols(accVars, nv)
		joined := rel.HashJoin("⋈", acc, nr, ac, nc)
		st.Joins++
		// Keep every variable (no projection): columns of acc then the
		// fresh columns of the new atom.
		newVars, keep := keepColumns(accVars, nv, func(string) bool { return true })
		acc = rel.Project(joined, fmt.Sprintf("C%d", k), keep)
		accVars = newVars
		if acc.Len() > st.MaxIntermediate {
			st.MaxIntermediate = acc.Len()
		}
	}
	return projectHead(q, acc, accVars), st, nil
}

// projectHead maps a relation over a variable list onto the query head
// (inserting head constants).
func projectHead(q *cq.CQ, r *rel.Relation, vars []string) *rel.Relation {
	pos := map[string]int{}
	for i, v := range vars {
		pos[v] = i
	}
	out := rel.NewRelation(q.Head.Rel, len(q.Head.Args))
	r.Each(func(t rel.Tuple) bool {
		h := make(rel.Tuple, len(q.Head.Args))
		for i, arg := range q.Head.Args {
			if arg.IsVar() {
				h[i] = t[pos[arg.Var]]
			} else {
				h[i] = arg.Const
			}
		}
		out.Add(h)
		return true
	})
	return out
}

// sortedVars returns a copy of vars in sorted order (helper for
// deterministic synthetic atoms).
func sortedVars(vars map[string]bool) []string {
	out := make([]string, 0, len(vars))
	for v := range vars {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
