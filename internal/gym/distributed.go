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
// Every algorithm is a *Program builder that returns the complete
// round list as pure data (a function of the query, p, and the seed
// only — never of execution results); the package builds programs and
// never a cluster — mpc.Simulate runs them, core's menu names them.
// For Yannakakis the builder is the MPC
// interpreter of planYannakakis' schedule (plan.go), the twin of the
// in-memory interpreter YannakakisWith: one stepRound per step, named
// by the step, computing the step's own apply. Because the program is
// data, a failed or checkpointed execution can resume: rebuild the
// identical program, restore the cluster (mpc.Restore), and
// mpc.Cluster.RunResumable skips the completed prefix and continues
// with the first outstanding round.

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

// YannakakisProgram builds the complete distributed Yannakakis round
// list for an acyclic pure CQ on p servers: materialize, then one round
// per step of the schedule (bottom-up semijoins, top-down semijoins,
// bottom-up joins with projection), and the final head projection. The
// program is pure data — its rounds depend only on (q, p, seed) — so
// rebuilding it yields an identical program, which is what makes
// executions resumable.
func YannakakisProgram(q *cq.CQ, p int, seed uint64) ([]mpc.Round, error) {
	if q.HasNegation() || q.HasDiseq() {
		return nil, fmt.Errorf("gym: distributed Yannakakis for pure CQs")
	}
	plan, ok := planYannakakis(q, true)
	if !ok {
		return nil, fmt.Errorf("gym: %v is cyclic; use GYM", q)
	}
	prog := []mpc.Round{materializeRound(q)}
	for _, s := range plan.steps {
		prog = append(prog, stepRound(s, p, seed))
	}

	// Final projection to the head, locally.
	rootName, rootVars := yname(plan.root), plan.rootVars
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

// stepRound is one step of the schedule as an MPC round: it
// repartitions Y<dst> and Y<src> on their shared columns (hashed
// consistently; facts of other relations stay put) and puts the
// co-located pieces through the step's apply. A semijoin replaces
// Y<dst> and leaves Y<src> in place (a server holding no piece of
// Y<dst> has nothing to reduce); a join consumes both.
func stepRound(s step, p int, seed uint64) mpc.Round {
	dn, sn := yname(s.dst), yname(s.src)
	return mpc.Round{
		Name: s.name,
		Keep: func(f rel.Fact) bool { return f.Rel != dn && f.Rel != sn },
		Route: mpc.ByRelation(map[string]mpc.Router{
			dn: mpc.HashOn(p, s.dstCols, seed),
			sn: mpc.HashOn(p, s.srcCols, seed),
		}),
		Compute: func(_ int, local *rel.Instance) *rel.Instance {
			dst, src := local.Relation(dn), local.Relation(sn)
			if src == nil {
				src = rel.NewRelation(sn, s.srcArity)
			}
			if !s.join {
				out := stripRelations(local, dn)
				if dst != nil {
					out.SetRelation(s.apply(dst, src))
				}
				return out
			}
			if dst == nil {
				dst = rel.NewRelation(dn, s.dstArity)
			}
			out := stripRelations(local, dn, sn)
			out.SetRelation(s.apply(dst, src))
			return out
		},
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

// GYMProgram builds the complete round list of GYM (Afrati et al.'s
// Generalized Yannakakis in MapReduce, Section 3.2) for a possibly
// cyclic pure CQ on p servers: one HyperCube round per bag of the
// decomposition (Decompose), a cleanup round dropping raw facts, then
// the distributed Yannakakis program over the bag tree. Like
// YannakakisProgram, the result is pure data and rebuilding it yields
// an identical program, so GYM executions are resumable end to end —
// including across the bag/Yannakakis phase boundary.
func GYMProgram(q *cq.CQ, p int, seed uint64) ([]mpc.Round, error) {
	dec, err := Decompose(q)
	if err != nil {
		return nil, err
	}
	var prog []mpc.Round

	// One HyperCube round per bag, materializing B<i> facts. Raw facts
	// and previously computed bags are kept local.
	for i, bq := range dec.BagQueries {
		grid, err := hypercube.NewOptimalGrid(bq, p, seed+uint64(i)*7919)
		if err != nil {
			return nil, err
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
		return nil, err
	}
	return append(prog, yprog...), nil
}
