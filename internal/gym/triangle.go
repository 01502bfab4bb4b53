package gym

import (
	"mpclogic/internal/cq"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
)

// This file implements the triangle-specific multi-round algorithms
// the paper uses as running examples: the two-round cascade of
// Example 3.1(2) and a two-round skew-resilient algorithm in the
// spirit of Beame-Koutris-Suciu (Section 3.2): under skew a single
// round is provably stuck at load m/√p, while two rounds recover the
// skew-free exponent by treating each heavy hitter's residual query —
// which is acyclic — with semijoins instead of a cartesian join.

// CascadeTriangleProgram computes H(x,y,z) :- R(x,y), S(y,z), T(z,x) in
// two rounds on p servers: round 1 repartition-joins R and S on y into
// an intermediate K; round 2 repartition-joins K with T on (x,z). The
// intermediate K can be much larger than the output — the trade-off
// versus the one-round HyperCube that the paper discusses. The rounds
// are pure data (a function of p and seed only), so executions are
// resumable.
func CascadeTriangleProgram(p int, seed uint64) []mpc.Round {
	round1 := mpc.Round{
		Name: "cascade-1 R⋈S",
		Keep: func(f rel.Fact) bool { return f.Rel == "T" },
		Route: mpc.ByRelation(map[string]mpc.Router{
			"R": mpc.HashOn(p, []int{1}, seed),
			"S": mpc.HashOn(p, []int{0}, seed),
		}),
		Compute: func(_ int, local *rel.Instance) *rel.Instance {
			out := local.Filter(func(f rel.Fact) bool { return f.Rel == "T" })
			r := local.Relation("R")
			s := local.Relation("S")
			if r == nil || s == nil {
				return out
			}
			k := rel.NewRelation("K", 3)
			joined := rel.HashJoin("⋈", r, s, []int{1}, []int{0})
			joined.Each(func(t rel.Tuple) bool {
				k.Add(rel.Tuple{t[0], t[1], t[3]}) // (x, y, z)
				return true
			})
			out.SetRelation(k)
			return out
		},
	}
	round2 := mpc.Round{
		Name: "cascade-2 K⋈T",
		Route: mpc.ByRelation(map[string]mpc.Router{
			"K": mpc.HashOn(p, []int{0, 2}, seed^0x5bd1e995), // (x, z)
			"T": mpc.HashOn(p, []int{1, 0}, seed^0x5bd1e995), // T(z,x) keyed (x, z)
		}),
		Compute: func(_ int, local *rel.Instance) *rel.Instance {
			out := rel.NewInstance()
			k := local.Relation("K")
			tt := local.Relation("T")
			h := rel.NewRelation("H", 3)
			out.SetRelation(h)
			if k == nil || tt == nil {
				return out
			}
			joined := rel.HashJoin("⋈", k, tt, []int{2, 0}, []int{0, 1})
			joined.Each(func(t rel.Tuple) bool {
				h.Add(rel.Tuple{t[0], t[1], t[2]})
				return true
			})
			return out
		},
	}
	return []mpc.Round{round1, round2}
}

// The skew-aware two-round algorithm (SkewTriangleProgram) computes
// the triangle query in two rounds with heavy-hitter handling; heavy is
// the set of y-values to treat as heavy hitters (e.g. from
// workload.HeavyHitters with threshold m/p^{1/3}). Light y-values
// travel through a HyperCube grid and are finished in round 1. For
// heavy y-values b the residual
// query R(a,b), S(b,c), T(c,a) is acyclic in (a,c), so instead of a
// cartesian join the algorithm semijoins T against the heavy R-side
// in round 1 (hashing on a) and against the heavy S-side in round 2
// (hashing on c) — load O(m/p) per heavy round instead of the m/√p a
// single-round cartesian strategy needs.
//
// SkewTriangleProgram builds the two skew-aware rounds as pure data
// (a function of p, the heavy-hitter set, seed, and the grid router
// only), so executions are resumable.
func SkewTriangleProgram(p int, heavy rel.ValueSet, seed uint64, grid mpc.Router) []mpc.Round {
	q := TriangleCQ()

	isHeavyR := func(f rel.Fact) bool { return f.Rel == "R" && heavy.Contains(f.Tuple[1]) }
	isHeavyS := func(f rel.Fact) bool { return f.Rel == "S" && heavy.Contains(f.Tuple[0]) }

	hashA := mpc.HashOn(p, []int{1}, seed^0x1234)  // T(c,a) by a
	hashRA := mpc.HashOn(p, []int{0}, seed^0x1234) // R(a,b) by a

	round1 := mpc.Round{
		Name: "skew-1 light grid + T⋉R_heavy",
		// Heavy S waits for round 2 at its current server.
		Keep: isHeavyS,
		Route: mpc.RouterFunc(func(f rel.Fact) []int {
			switch f.Rel {
			case "R":
				if isHeavyR(f) {
					return hashRA.Route(f)
				}
				return grid.Route(f)
			case "S":
				return grid.Route(f) // light only; heavy kept above
			case "T":
				// T serves both the light grid and the heavy path.
				return append(grid.Route(f), hashA.Route(f)...)
			}
			return nil
		}),
		Compute: func(_ int, local *rel.Instance) *rel.Instance {
			out := local.Filter(func(f rel.Fact) bool { return f.Rel == "S" && heavy.Contains(f.Tuple[0]) })
			// Light triangles: evaluate the query, drop heavy-y rows.
			tri := rel.NewRelation("H", 3)
			cq.Evaluate(q, local).Each(func(t rel.Tuple) bool {
				if !heavy.Contains(t[1]) {
					tri.Add(t)
				}
				return true
			})
			out.SetRelation(tri)
			// Heavy path: W(a, b, c) for T(c,a) and heavy R(a,b).
			r := local.Relation("R")
			tt := local.Relation("T")
			if r != nil && tt != nil {
				w := rel.NewRelation("W", 3)
				heavyR := rel.Select(r, func(t rel.Tuple) bool { return heavy.Contains(t[1]) })
				joined := rel.HashJoin("⋈", heavyR, tt, []int{0}, []int{1})
				joined.Each(func(t rel.Tuple) bool {
					w.Add(rel.Tuple{t[0], t[1], t[2]}) // (a, b, c)
					return true
				})
				out.SetRelation(w)
			}
			return out
		},
	}

	hashC := mpc.HashOn(p, []int{2}, seed^0x9999)  // W(a,b,c) by c
	hashSC := mpc.HashOn(p, []int{1}, seed^0x9999) // S(b,c) by c

	round2 := mpc.Round{
		Name: "skew-2 W⋉S_heavy",
		Keep: func(f rel.Fact) bool { return f.Rel == "H" },
		Route: mpc.RouterFunc(func(f rel.Fact) []int {
			switch f.Rel {
			case "W":
				return hashC.Route(f)
			case "S":
				return hashSC.Route(f)
			}
			return nil
		}),
		Compute: func(_ int, local *rel.Instance) *rel.Instance {
			out := local.Filter(func(f rel.Fact) bool { return f.Rel == "H" })
			w := local.Relation("W")
			s := local.Relation("S")
			if w == nil || s == nil {
				return out
			}
			h := out.EnsureRelation("H", 3)
			// W(a,b,c) ⋈ S(b,c): match on (b, c).
			joined := rel.HashJoin("⋈", w, s, []int{1, 2}, []int{0, 1})
			joined.Each(func(t rel.Tuple) bool {
				h.Add(rel.Tuple{t[0], t[1], t[2]})
				return true
			})
			return out
		},
	}
	return []mpc.Round{round1, round2}
}

// TriangleCQ is the query the triangle programs of this file are
// written for, relation and head names included.
func TriangleCQ() *cq.CQ {
	return cq.MustParse(rel.NewDict(), "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
}
