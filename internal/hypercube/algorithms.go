package hypercube

import (
	"fmt"
	"math"

	"mpclogic/internal/cq"
	"mpclogic/internal/mpc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// This file packages the paper's single-round algorithms as MPC rounds.

// binaryJoin captures the routing geometry of a two-atom join query:
// which tuple positions of each relation carry the shared variables.
type binaryJoin struct {
	left, right  cq.Atom
	lCols, rCols []int // positions of the shared variables
}

func analyzeBinaryJoin(q *cq.CQ) (*binaryJoin, error) {
	if len(q.Body) != 2 || q.HasNegation() {
		return nil, fmt.Errorf("hypercube: expected a two-atom positive query, got %v", q)
	}
	l, r := q.Body[0], q.Body[1]
	if l.Rel == r.Rel {
		return nil, fmt.Errorf("hypercube: self-join %s cannot be routed by relation name", l.Rel)
	}
	b := &binaryJoin{left: l, right: r}
	b.lCols, b.rCols = cq.JoinColumns(l, r)
	if len(b.lCols) == 0 {
		return nil, fmt.Errorf("hypercube: atoms of %v share no variables (cross product)", q)
	}
	return b, nil
}

// evalCompute evaluates q at each server.
func evalCompute(q *cq.CQ) mpc.Compute {
	return func(_ int, local *rel.Instance) *rel.Instance {
		return cq.Output(q, local)
	}
}

// GenericJoinCompute evaluates q at each server with the worst-case-
// optimal generic join instead of the binary-join plan — the local
// engine Chu-Balazinska-Suciu pair with the HyperCube shuffle. The
// generic join refuses negation; keeping such a q away is the caller's
// job (core's hypercube row fits positive queries only), and a round
// handed one fails loudly rather than computing nothing.
func GenericJoinCompute(q *cq.CQ) mpc.Compute {
	return func(_ int, local *rel.Instance) *rel.Instance {
		res, err := cq.GenericJoin(q, local)
		if err != nil {
			panic(err)
		}
		out := rel.NewInstance()
		out.SetRelation(res)
		return out
	}
}

// RepartitionJoin is Example 3.1(1a): hash both relations on the
// shared variables to one of p servers and join locally. Load is
// O(m/p) without skew but degrades to Θ(m) when a join value is heavy.
func RepartitionJoin(q *cq.CQ, p int, seed uint64) (mpc.Round, error) {
	b, err := analyzeBinaryJoin(q)
	if err != nil {
		return mpc.Round{}, err
	}
	route := mpc.ByRelation(map[string]mpc.Router{
		b.left.Rel:  mpc.HashOn(p, b.lCols, seed),
		b.right.Rel: mpc.HashOn(p, b.rCols, seed),
	})
	return mpc.Round{Name: "repartition-join", Route: route, Compute: evalCompute(q)}, nil
}

// groupSide is the side g = ⌊√p⌋ (at least 1) of the grouping grid,
// which is laid row by row over the first g² of the p servers.
func groupSide(p int) int {
	g := int(math.Sqrt(float64(p)))
	if g < 1 {
		g = 1
	}
	return g
}

// groupCells lists the servers one tuple of the grouping strategy goes
// to: a left tuple hashing to h fills row h mod g of the grid, a right
// tuple column h mod g, so every (left, right) pair of tuples meets in
// exactly one server. It is the grid's only enumeration; GroupingJoin
// and SkewAwareJoin's heavy path both route through it.
func groupCells(g int, left bool, h uint64) []int {
	k := int(h % uint64(g))
	out := make([]int, g)
	for o := range out {
		if left {
			out[o] = k*g + o
		} else {
			out[o] = o*g + k
		}
	}
	return out
}

// GroupingJoin is Example 3.1(1b) (Ullman's drug-interaction
// strategy): split R and S into g = ⌊√p⌋ groups by tuple hash and send
// each (R-group, S-group) pair to its own server. The load per server
// is O(m/√p) regardless of skew, because the grouping ignores values
// entirely.
func GroupingJoin(q *cq.CQ, p int, seed uint64) (mpc.Round, error) {
	b, err := analyzeBinaryJoin(q)
	if err != nil {
		return mpc.Round{}, err
	}
	g := groupSide(p)
	lRel, rRel := b.left.Rel, b.right.Rel
	route := mpc.RouterFunc(func(f rel.Fact) []int {
		if f.Rel != lRel && f.Rel != rRel {
			return nil
		}
		return groupCells(g, f.Rel == lRel, f.Tuple.Hash()^seed)
	})
	return mpc.Round{Name: "grouping-join", Route: route, Compute: evalCompute(q)}, nil
}

// HyperCubeRound wraps a share grid into a one-round MPC algorithm:
// route by the grid, evaluate the query locally (Example 3.2).
func HyperCubeRound(g *Grid) mpc.Round {
	return mpc.Round{Name: "hypercube " + g.String(), Route: g, Compute: evalCompute(g.Query)}
}

// SkewAwareJoin is a SharesSkew-style binary join: join values that
// are heavy hitters (declared by the caller, e.g. frequency > m/p) are
// routed with the value-oblivious grouping strategy while light values
// use plain repartition. Load is O(m/√p) even under skew, O(m/p) on
// the light part.
func SkewAwareJoin(q *cq.CQ, p int, heavy rel.ValueSet, seed uint64) (mpc.Round, error) {
	b, err := analyzeBinaryJoin(q)
	if err != nil {
		return mpc.Round{}, err
	}
	g := groupSide(p)
	lRel, rRel := b.left.Rel, b.right.Rel
	lCols, rCols := b.lCols, b.rCols
	light := &policy.Hash{Nodes: p, Seed: seed}
	route := mpc.RouterFunc(func(f rel.Fact) []int {
		var key rel.Tuple
		switch f.Rel {
		case lRel:
			key = f.Tuple.Project(lCols)
		case rRel:
			key = f.Tuple.Project(rCols)
		default:
			return nil
		}
		for _, v := range key {
			if heavy.Contains(v) {
				return groupCells(g, f.Rel == lRel, f.Tuple.Hash()^seed)
			}
		}
		return []int{light.Bucket(key)}
	})
	return mpc.Round{Name: "skew-aware-join", Route: route, Compute: evalCompute(q)}, nil
}
