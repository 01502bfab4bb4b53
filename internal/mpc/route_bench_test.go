package mpc_test

import (
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// gridPlacement is a grid's placement of every fact: its Targets, or,
// for a fact no atom matches, one hashed server — the shape of the
// serving daemon's anchor placement.
func gridPlacement(g *hypercube.Grid, p int) mpc.Router {
	return mpc.RouterFunc(func(f rel.Fact) []int {
		if ts := g.Targets(f); len(ts) > 0 {
			return ts
		}
		return []int{int(rel.Mix64(f.Hash()) % uint64(p))}
	})
}

// relationPlacement is gridPlacement as an mpc.RelationRouter: the
// grid's restriction to a relation is resolved once per relation, the
// way the serving daemon's anchor placement routes.
type relationPlacement struct {
	g *hypercube.Grid
	p int
}

func (pl relationPlacement) Route(f rel.Fact) []int { return gridPlacement(pl.g, pl.p).Route(f) }

func (pl relationPlacement) RouteRelation(name string, arity int) func(rel.Tuple) []int {
	g := pl.g.Relation(name, arity)
	return func(t rel.Tuple) []int {
		if ts := g.Targets(t); len(ts) > 0 {
			return ts
		}
		return []int{int(rel.Mix64(rel.Fact{Rel: name, Tuple: t}.Hash()) % uint64(pl.p))}
	}
}

// BenchmarkRouteRound is one repartition of a replicated layout, the
// serving daemon's repartition without the daemon: 40 000 join facts on
// p = 8 servers laid out as the image of the self-join grid's placement
// (which puts each R fact on several servers), routed and delivered
// through the join grid of R(x, y), S(y, z) with the owner = the least
// server the self-join grid placed a fact on. Each op runs on a
// successor, so every op starts from the same layout. The relation
// sub-benchmark resolves the router and the owner once per relation,
// as the daemon does; the fact one routes through a RouterFunc and a
// per-fact owner, the adapter path every plain Router takes.
func BenchmarkRouteRound(b *testing.B) {
	const p = 8
	d := rel.NewDict()
	grid := func(q string) *hypercube.Grid {
		g, err := hypercube.NewOptimalGrid(cq.MustParse(d, q), p, 1)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	self, join := grid("D(x, z) :- R(x, y), R(y, z)"), grid("A(x, z) :- R(x, y), S(y, z)")
	facts := workload.JoinSkewFree(20000)
	layout := make([]*rel.Instance, p)
	for s := range layout {
		layout[s] = rel.NewInstance()
	}
	place := gridPlacement(self, p)
	facts.Each(func(f rel.Fact) bool {
		for _, s := range place.Route(f) {
			layout[s].Add(f)
		}
		return true
	})
	c := mpc.NewCluster(p)
	for s, frag := range layout {
		c.LoadAt(s, frag)
	}
	least := func(f rel.Fact) int {
		if f.Rel == "R" {
			if s, ok := self.First(f); ok {
				return s
			}
		}
		return -1
	}
	rounds := []struct {
		name  string
		round mpc.Round
	}{
		{"relation", mpc.Round{
			Name:  "repartition",
			Route: relationPlacement{join, p},
			Owner: func(name string, arity int) func(rel.Tuple) int {
				if name != "R" {
					return nil
				}
				g := self.Relation(name, arity)
				return func(t rel.Tuple) int {
					if s, ok := g.First(t); ok {
						return s
					}
					return -1
				}
			},
		}},
		{"fact", mpc.Round{
			Name:  "repartition",
			Route: gridPlacement(join, p),
			Owner: func(name string, _ int) func(rel.Tuple) int {
				return func(t rel.Tuple) int { return least(rel.Fact{Rel: name, Tuple: t}) }
			},
		}},
	}
	for _, bc := range rounds {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				next := c.Successor()
				rr, err := next.RouteRound(bc.round)
				if err != nil {
					b.Fatal(err)
				}
				if rr.Routed != facts.Len() {
					b.Fatalf("routed %d facts of %d", rr.Routed, facts.Len())
				}
				if _, err := next.Deliver(rr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
