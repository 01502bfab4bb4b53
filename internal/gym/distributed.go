package gym

import (
	"fmt"
	"strings"

	"mpclogic/internal/cq"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
)

// This file runs Yannakakis and GYM as multi-round MPC programs. The
// scheme: a zero-communication round materializes per-atom node
// relations Y<i> (synthetic facts over the atom's distinct variables);
// each semijoin or join of a tree edge is then one MPC round that
// repartitions the two participating node relations on their shared
// variables and keeps everything else local. Rounds and communication
// are accounted by the MPC simulator, which is exactly the trade-off
// GYM studies (deep trees: fewer tuples shipped per round, more
// rounds; shallow trees: the opposite).
//
// Every algorithm is exposed in two layers: a *Program builder that
// returns the complete round list as pure data (a function of the
// query, p, and the seed only — never of execution results), and a
// driver that executes it. Because the program is data, a failed or
// checkpointed execution can resume: rebuild the identical program,
// restore the cluster (mpc.Restore), and mpc.Cluster.RunResumable
// skips the completed prefix and continues with the first outstanding
// round.

// yname names the node relation of atom/bag i.
func yname(i int) string { return fmt.Sprintf("Y%d", i) }

// materializeRound converts raw input facts into node relations Y<i>
// for the atoms of q, dropping the raw facts. Zero communication.
func materializeRound(q *cq.CQ) mpc.Round {
	return mpc.Round{
		Name: "materialize",
		Keep: func(rel.Fact) bool { return true },
		Compute: func(_ int, local *rel.Instance) *rel.Instance {
			out := rel.NewInstance()
			for i, a := range q.Body {
				r, _ := nodeRelation(a, local, yname(i))
				out.SetRelation(r)
			}
			return out
		},
	}
}

// edgeRound builds one round that repartitions relations aName and
// bName on the given column lists (hashed consistently) and applies
// combine to the co-located pieces. Facts of other relations stay put.
func edgeRound(name string, p int, aName, bName string, aCols, bCols []int, seed uint64,
	combine func(local *rel.Instance) *rel.Instance) mpc.Round {
	return mpc.Round{
		Name: name,
		Keep: func(f rel.Fact) bool { return f.Rel != aName && f.Rel != bName },
		Route: mpc.ByRelation(map[string]mpc.Router{
			aName: mpc.HashOn(p, aCols, seed),
			bName: mpc.HashOn(p, bCols, seed),
		}),
		Compute: func(_ int, local *rel.Instance) *rel.Instance {
			return combine(local)
		},
	}
}

// YannakakisProgram builds the complete distributed Yannakakis round
// list for an acyclic pure CQ on p servers: materialize, bottom-up
// semijoins, top-down semijoins, bottom-up joins with projection, and
// the final head projection. The program is pure data — its rounds
// depend only on (q, p, seed) — so rebuilding it yields an identical
// program, which is what makes executions resumable.
func YannakakisProgram(q *cq.CQ, p int, seed uint64) ([]mpc.Round, error) {
	if q.HasNegation() || q.HasDiseq() {
		return nil, fmt.Errorf("gym: distributed Yannakakis for pure CQs")
	}
	jt, ok := cq.GYO(q)
	if !ok {
		return nil, fmt.Errorf("gym: %v is cyclic; use GYM", q)
	}
	prog := []mpc.Round{materializeRound(q)}
	n := len(jt.Atoms)
	vars := make([][]string, n)
	for i, a := range jt.Atoms {
		vars[i] = a.Vars()
	}

	// Phase 1: bottom-up semijoin rounds (parent ⋉ child).
	for _, i := range jt.Order {
		par := jt.Parent[i]
		if par < 0 {
			continue
		}
		pc, cc := sharedCols(vars[par], vars[i])
		pn, cn := yname(par), yname(i)
		prog = append(prog, edgeRound(fmt.Sprintf("semijoin↑ %s⋉%s", pn, cn), p, pn, cn, pc, cc, seed,
			semijoinCombine(pn, cn, pc, cc, len(vars[par]), len(vars[i]))))
	}
	// Phase 2: top-down semijoin rounds (child ⋉ parent).
	for k := n - 1; k >= 0; k-- {
		i := jt.Order[k]
		par := jt.Parent[i]
		if par < 0 {
			continue
		}
		cc, pc := sharedCols(vars[i], vars[par])
		cn, pn := yname(i), yname(par)
		prog = append(prog, edgeRound(fmt.Sprintf("semijoin↓ %s⋉%s", cn, pn), p, cn, pn, cc, pc, seed,
			semijoinCombine(cn, pn, cc, pc, len(vars[i]), len(vars[par]))))
	}

	headVars := map[string]bool{}
	for _, t := range q.Head.Args {
		if t.IsVar() {
			headVars[t.Var] = true
		}
	}

	// Phase 3: bottom-up join rounds with projection.
	for _, i := range jt.Order {
		par := jt.Parent[i]
		if par < 0 {
			continue
		}
		pc, cc := sharedCols(vars[par], vars[i])
		pn, cn := yname(par), yname(i)

		// Keep parent vars plus child head vars not already present.
		inParent := map[string]bool{}
		for _, v := range vars[par] {
			inParent[v] = true
		}
		newVars := append([]string(nil), vars[par]...)
		keepCols := make([]int, 0, len(vars[par])+len(vars[i]))
		for k := range vars[par] {
			keepCols = append(keepCols, k)
		}
		for k, v := range vars[i] {
			if !inParent[v] && headVars[v] {
				newVars = append(newVars, v)
				keepCols = append(keepCols, len(vars[par])+k)
			}
		}
		pArity, cArity := len(vars[par]), len(vars[i])
		keep := keepCols
		prog = append(prog, edgeRound(fmt.Sprintf("join %s⋈%s", pn, cn), p, pn, cn, pc, cc, seed,
			func(local *rel.Instance) *rel.Instance {
				out := stripRelations(local, pn, cn)
				l := local.Relation(pn)
				r := local.Relation(cn)
				if l == nil {
					l = rel.NewRelation(pn, pArity)
				}
				if r == nil {
					r = rel.NewRelation(cn, cArity)
				}
				joined := rel.HashJoin("⋈", l, r, pc, cc)
				out.SetRelation(rel.Project(joined, pn, keep))
				return out
			}))
		vars[par] = newVars
	}

	// Final projection to the head, locally.
	root := jt.Order[n-1]
	rootName := yname(root)
	rootVars := vars[root]
	prog = append(prog, mpc.Round{
		Name: "project-head",
		Keep: func(rel.Fact) bool { return true },
		Compute: func(_ int, local *rel.Instance) *rel.Instance {
			out := rel.NewInstance()
			r := local.Relation(rootName)
			if r == nil {
				r = rel.NewRelation(rootName, len(rootVars))
			}
			out.SetRelation(projectHead(q, r, rootVars))
			return out
		},
	})
	return prog, nil
}

// semijoinCombine returns a compute phase replacing relation a with
// a ⋉ b on the given columns, leaving all other relations intact.
func semijoinCombine(aName, bName string, aCols, bCols []int, aArity, bArity int) func(*rel.Instance) *rel.Instance {
	return func(local *rel.Instance) *rel.Instance {
		out := stripRelations(local, aName)
		a := local.Relation(aName)
		b := local.Relation(bName)
		if a == nil {
			return out
		}
		if b == nil {
			b = rel.NewRelation(bName, bArity)
		}
		out.SetRelation(rel.SemiJoin(a, b, aCols, bCols))
		return out
	}
}

// stripRelations clones local minus the named relations.
func stripRelations(local *rel.Instance, names ...string) *rel.Instance {
	drop := map[string]bool{}
	for _, n := range names {
		drop[n] = true
	}
	return local.Filter(func(f rel.Fact) bool { return !drop[f.Rel] })
}

// DistributedYannakakis evaluates an acyclic pure CQ on p servers and
// returns the cluster (for stats) and the result. Options (e.g.
// mpc.WithFaultPlan, mpc.WithCheckpoints) configure the cluster; on
// error the partially-executed cluster is still returned so callers
// can checkpoint and resume it.
func DistributedYannakakis(q *cq.CQ, p int, inst *rel.Instance, seed uint64, opts ...mpc.Option) (*mpc.Cluster, *rel.Instance, error) {
	prog, err := YannakakisProgram(q, p, seed)
	if err != nil {
		return nil, nil, err
	}
	c := mpc.NewCluster(p, opts...)
	c.LoadRoundRobin(inst)
	if err := c.RunResumable(prog...); err != nil {
		return c, nil, err
	}
	return c, c.Output(), nil
}

// GYMProgram builds the complete GYM round list for a (possibly
// cyclic) pure CQ on p servers: one HyperCube round per bag of the
// decomposition, a cleanup round dropping raw facts, then the full
// distributed Yannakakis program over the bag tree. Like
// YannakakisProgram, the result is pure data and rebuilding it yields
// an identical program, so GYM executions are resumable end to end —
// including across the bag/Yannakakis phase boundary.
func GYMProgram(q *cq.CQ, p int, seed uint64) ([]mpc.Round, *Decomposition, error) {
	dec, err := Decompose(q)
	if err != nil {
		return nil, nil, err
	}
	var prog []mpc.Round

	// One HyperCube round per bag, materializing B<i> facts. Raw facts
	// and previously computed bags are kept local.
	for i, bq := range dec.BagQueries {
		grid, err := hypercube.NewOptimalGrid(bq, p, seed+uint64(i)*7919)
		if err != nil {
			return nil, nil, err
		}
		memberRels := map[string]bool{}
		for _, a := range bq.Body {
			memberRels[a.Rel] = true
		}
		bq := bq
		prog = append(prog, mpc.Round{
			Name: fmt.Sprintf("bag %d (%s)", i, grid.String()),
			// Keep bag outputs, facts of non-member relations, and —
			// crucially — member-relation facts this bag's grid routes
			// nowhere (constant or repeated-variable mismatch): a later
			// bag over the same relation may still need them.
			Keep: func(f rel.Fact) bool {
				return !memberRels[f.Rel] || strings.HasPrefix(f.Rel, "B") ||
					len(grid.Targets(f)) == 0
			},
			Route: grid,
			Compute: func(_ int, local *rel.Instance) *rel.Instance {
				out := local.Filter(func(f rel.Fact) bool { return true })
				out.SetRelation(cq.Evaluate(bq, local))
				return out
			},
		})
	}

	// Drop raw facts; keep only bag relations. Zero communication.
	prog = append(prog, mpc.Round{
		Name: "cleanup",
		Keep: func(rel.Fact) bool { return true },
		Compute: func(_ int, local *rel.Instance) *rel.Instance {
			return local.Filter(func(f rel.Fact) bool { return strings.HasPrefix(f.Rel, "B") })
		},
	})

	// Yannakakis over the bag tree: the synthetic query's body atoms
	// are B<i>(bag vars) and its head is the original head.
	synth := synthQuery(q, dec.Bags)
	synth.Head = q.Head
	yprog, err := YannakakisProgram(synth, p, seed^0xabcdef)
	if err != nil {
		return nil, nil, err
	}
	return append(prog, yprog...), dec, nil
}

// GYM evaluates a (possibly cyclic) pure CQ on p servers: it
// decomposes the query into bags, evaluates each bag with a
// HyperCube round, and runs distributed Yannakakis over the bag tree
// (Afrati et al.'s Generalized Yannakakis in MapReduce, Section 3.2).
// Options configure the cluster; on a mid-program error the
// partially-executed cluster is still returned so callers can
// checkpoint it and resume via GYMProgram + mpc.Restore +
// RunResumable.
func GYM(q *cq.CQ, p int, inst *rel.Instance, seed uint64, opts ...mpc.Option) (*mpc.Cluster, *rel.Instance, *Decomposition, error) {
	prog, dec, err := GYMProgram(q, p, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	c := mpc.NewCluster(p, opts...)
	c.LoadRoundRobin(inst)
	if err := c.RunResumable(prog...); err != nil {
		return c, nil, dec, err
	}
	return c, c.Output(), dec, nil
}
