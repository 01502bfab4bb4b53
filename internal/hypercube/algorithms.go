package hypercube

import (
	"fmt"
	"math"

	"mpclogic/internal/cq"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
)

// This file packages the paper's single-round algorithms as MPC rounds.

// binaryJoin captures the routing geometry of a two-atom join query:
// which tuple positions of each relation carry the shared variables.
type binaryJoin struct {
	q            *cq.CQ
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
	lPos := map[string]int{}
	for i, t := range l.Args {
		if t.IsVar() {
			if _, ok := lPos[t.Var]; !ok {
				lPos[t.Var] = i
			}
		}
	}
	b := &binaryJoin{q: q, left: l, right: r}
	seen := map[string]bool{}
	for i, t := range r.Args {
		if !t.IsVar() || seen[t.Var] {
			continue
		}
		if li, ok := lPos[t.Var]; ok {
			seen[t.Var] = true
			b.lCols = append(b.lCols, li)
			b.rCols = append(b.rCols, i)
		}
	}
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
// engine Chu-Balazinska-Suciu pair with the HyperCube shuffle.
func GenericJoinCompute(q *cq.CQ) mpc.Compute {
	return func(_ int, local *rel.Instance) *rel.Instance {
		out := rel.NewInstance()
		out.EnsureRelation(q.Head.Rel, len(q.Head.Args))
		if res, err := cq.GenericJoin(q, local); err == nil {
			out.SetRelation(res)
		}
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
	g := int(math.Sqrt(float64(p)))
	if g < 1 {
		g = 1
	}
	lRel, rRel := b.left.Rel, b.right.Rel
	route := mpc.RouterFunc(func(f rel.Fact) []int {
		switch f.Rel {
		case lRel:
			i := int((f.Tuple.Hash() ^ seed) % uint64(g))
			out := make([]int, g)
			for j := 0; j < g; j++ {
				out[j] = i*g + j
			}
			return out
		case rRel:
			j := int((f.Tuple.Hash() ^ seed) % uint64(g))
			out := make([]int, g)
			for i := 0; i < g; i++ {
				out[i] = i*g + j
			}
			return out
		}
		return nil
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
	g := int(math.Sqrt(float64(p)))
	if g < 1 {
		g = 1
	}
	lRel, rRel := b.left.Rel, b.right.Rel
	lCols, rCols := b.lCols, b.rCols
	route := mpc.RouterFunc(func(f rel.Fact) []int {
		var key rel.Tuple
		isLeft := false
		switch f.Rel {
		case lRel:
			key = f.Tuple.Project(lCols)
			isLeft = true
		case rRel:
			key = f.Tuple.Project(rCols)
		default:
			return nil
		}
		isHeavy := false
		for _, v := range key {
			if heavy.Contains(v) {
				isHeavy = true
				break
			}
		}
		if !isHeavy {
			return []int{int((key.Hash() ^ seed) % uint64(p))}
		}
		if isLeft {
			i := int((f.Tuple.Hash() ^ seed) % uint64(g))
			out := make([]int, g)
			for j := 0; j < g; j++ {
				out[j] = i*g + j
			}
			return out
		}
		j := int((f.Tuple.Hash() ^ seed) % uint64(g))
		out := make([]int, g)
		for i := 0; i < g; i++ {
			out[i] = i*g + j
		}
		return out
	})
	return mpc.Round{Name: "skew-aware-join", Route: route, Compute: evalCompute(q)}, nil
}
