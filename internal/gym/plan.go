package gym

import (
	"fmt"

	"mpclogic/internal/cq"
	"mpclogic/internal/rel"
)

// This file holds Yannakakis' schedule as data. planYannakakis is the
// only code that builds the GYO join tree, walks it, and decides which
// columns a join keeps; YannakakisWith (yannakakis.go) folds the steps
// over in-memory relations and YannakakisProgram (distributed.go) turns
// each step into one MPC round. Both interpreters run the same
// step.apply, so they cannot disagree on what an edge computes.

// step is one edge operation of the schedule on the node relations
// Y<dst> and Y<src>: a semijoin replaces dst by dst ⋉ src, a join
// replaces it by the projection of dst ⋈ src onto keep.
type step struct {
	name               string // MPC round name
	dst, src           int    // join-tree nodes: dst is replaced, src is read
	dstCols, srcCols   []int  // columns of the shared variables, pairwise
	dstArity, srcArity int    // arities of the two node relations at this point
	join               bool
	keep               []int // join only: surviving columns of dst ⋈ src
}

// yannakakisPlan is the schedule in execution order plus where the
// result ends up: after the last step, node root holds a relation over
// rootVars that projects onto the head.
type yannakakisPlan struct {
	steps    []step
	root     int
	rootVars []string
}

// yname names the node relation of atom/bag i.
func yname(i int) string { return fmt.Sprintf("Y%d", i) }

// sharedCols returns the column lists of the variables shared between
// two var lists.
func sharedCols(aVars, bVars []string) (aCols, bCols []int) {
	bPos := map[string]int{}
	for i, v := range bVars {
		bPos[v] = i
	}
	for i, v := range aVars {
		if j, ok := bPos[v]; ok {
			aCols = append(aCols, i)
			bCols = append(bCols, j)
		}
	}
	return
}

// keepColumns decides what survives a join of relations over aVars and
// bVars: every column of a, then each column of b whose variable a
// lacks and wanted admits. It returns the result's variable list and
// the matching column list into the concatenated join tuple.
func keepColumns(aVars, bVars []string, wanted func(string) bool) (vars []string, cols []int) {
	inA := map[string]bool{}
	vars = append([]string(nil), aVars...)
	cols = make([]int, 0, len(aVars)+len(bVars))
	for k, v := range aVars {
		inA[v] = true
		cols = append(cols, k)
	}
	for k, v := range bVars {
		if !inA[v] && wanted(v) {
			vars = append(vars, v)
			cols = append(cols, len(aVars)+k)
		}
	}
	return vars, cols
}

// planYannakakis schedules an acyclic query: a bottom-up semijoin per
// tree edge (parent ⋉ child), a top-down semijoin per edge (child ⋉
// parent), then a bottom-up join per edge that projects away child
// variables that are neither head variables nor present in the parent
// (safe by the running-intersection property of join trees). Without
// fullReduction the semijoin steps are left out — the ablation. It
// reports false when q is cyclic.
func planYannakakis(q *cq.CQ, fullReduction bool) (*yannakakisPlan, bool) {
	jt, ok := cq.GYO(q)
	if !ok {
		return nil, false
	}
	vars := make([][]string, len(jt.Atoms))
	for i, a := range jt.Atoms {
		vars[i] = a.Vars()
	}
	// The tree's (parent, child) edges bottom-up: the elimination order
	// visits children before parents and its last entry is the root.
	var edges [][2]int
	for _, i := range jt.Order {
		if par := jt.Parent[i]; par >= 0 {
			edges = append(edges, [2]int{par, i})
		}
	}
	edge := func(format string, dst, src int) step {
		dc, sc := sharedCols(vars[dst], vars[src])
		return step{
			name: fmt.Sprintf(format, yname(dst), yname(src)),
			dst:  dst, src: src, dstCols: dc, srcCols: sc,
			dstArity: len(vars[dst]), srcArity: len(vars[src]),
		}
	}

	plan := &yannakakisPlan{}
	if fullReduction {
		for _, e := range edges {
			plan.steps = append(plan.steps, edge("semijoin↑ %s⋉%s", e[0], e[1]))
		}
		for k := len(edges) - 1; k >= 0; k-- {
			plan.steps = append(plan.steps, edge("semijoin↓ %s⋉%s", edges[k][1], edges[k][0]))
		}
	}
	headVars := map[string]bool{}
	for _, t := range q.Head.Args {
		if t.IsVar() {
			headVars[t.Var] = true
		}
	}
	inHead := func(v string) bool { return headVars[v] }
	for _, e := range edges {
		s := edge("join %s⋈%s", e[0], e[1])
		s.join = true
		vars[s.dst], s.keep = keepColumns(vars[s.dst], vars[s.src], inHead)
		plan.steps = append(plan.steps, s)
	}
	plan.root = jt.Order[len(jt.Order)-1]
	plan.rootVars = vars[plan.root]
	return plan, true
}

// apply runs the step on its two node relations.
func (s step) apply(dst, src *rel.Relation) *rel.Relation {
	if !s.join {
		return rel.SemiJoin(dst, src, s.dstCols, s.srcCols)
	}
	return rel.Project(rel.HashJoin("⋈", dst, src, s.dstCols, s.srcCols), yname(s.dst), s.keep)
}
