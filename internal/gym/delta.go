package gym

import (
	"fmt"

	"mpclogic/internal/cq"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
)

// This file rebuilds the repo's recursive and multi-round programs as
// semi-naive delta programs (mpc.DeltaProgram): every relation the
// program maintains is resident — placed once by a content hash and
// never re-shipped — and each round's communication phase carries only
// Δ fragments. The base load and every later update batch go through
// the same Inject/Step rounds, which is what makes the headline
// invariant checkable: maintaining a view incrementally yields the
// byte-identical output (and per-server state) of a from-scratch run
// on the final input.
//
// Placement discipline: a resident relation's home is a pure hash of
// fact content, chosen so every join of the program is co-located —
// e.g. TC(x,z) lives where E(z,·) lives, so the extension join
// TC ⋈ E needs no reshuffle. Because placement is content-determined
// and folds are idempotent set unions, the final per-server state is
// independent of how the input was batched.

// indexOn pre-builds the cached join index of a resident relation (a
// no-op once it exists). Folds maintain the index incrementally, so
// after the base load every delta join probes the resident at O(|Δ|)
// instead of scanning it.
func indexOn(r *rel.Relation, cols ...int) {
	if r != nil {
		r.IndexOn(cols...)
	}
}

// addJoin folds the projection of l ⋈ r into h; nil or empty sides
// contribute nothing.
func addJoin(h *rel.Relation, l, r *rel.Relation, lCols, rCols, proj []int) {
	if l == nil || r == nil || l.Len() == 0 || r.Len() == 0 {
		return
	}
	rel.HashJoin("⋈", l, r, lCols, rCols).Each(func(t rel.Tuple) bool {
		h.Add(t.Project(proj))
		return true
	})
}

// DeltaTCProgram maintains TC = the transitive closure of edge
// relation E under edge insertions, as a linear semi-naive program.
//
// Placement: E(u,v) at h(u), TC(x,w) at h(w) — the same single-column
// hash, so TC(·,z) and E(z,·) are co-located and the extension join
// ships nothing but the frontier. Inject routes ΔE to h(source), folds
// it into E, and seeds the candidate frontier ΔC = ΔE ∪ TC ⋈ ΔE (the
// first new edge on any path is reached through old closure only).
// Each Step routes ΔC to h(target), folds the genuinely-new facts into
// TC, and extends them by one resident edge: ΔC' = newTC ⋈ E. The
// fixpoint is reached when a step derives nothing new — so the cost of
// an update is proportional to the closure it actually changes, not to
// the resident state.
func DeltaTCProgram(p int, seed uint64) mpc.DeltaProgram {
	dE := mpc.DeltaName("E")
	resident := []string{"E", "TC"}
	injectRoute := mpc.ByRelation(map[string]mpc.Router{dE: mpc.HashOn(p, []int{0}, seed)})
	stepRoute := mpc.ByRelation(map[string]mpc.Router{"ΔC": mpc.HashOn(p, []int{1}, seed)})

	return mpc.DeltaProgram{
		Name: "ΔTC",
		Inject: func(batch int) []mpc.Round {
			return []mpc.Round{{
				Name:      fmt.Sprintf("ΔTC inject %d", batch),
				Resident:  resident,
				DeltaRels: []string{dE},
				Route:     injectRoute,
				Compute: func(_ int, local *rel.Instance) *rel.Instance {
					newE := local.FoldDelta(dE, "E", 2)
					if newE.Len() == 0 {
						return local
					}
					cand := rel.NewRelationSize("ΔC", 2, newE.Len())
					newE.Each(func(t rel.Tuple) bool {
						cand.Add(t)
						return true
					})
					indexOn(local.Relation("TC"), 1)
					addJoin(cand, local.Relation("TC"), newE, []int{1}, []int{0}, []int{0, 3})
					local.SetRelation(cand)
					return local
				},
			}}
		},
		Step: func(k int) mpc.Round {
			return mpc.Round{
				Name:      fmt.Sprintf("ΔTC step %d", k),
				Resident:  resident,
				DeltaRels: []string{"ΔC"},
				Route:     stepRoute,
				Compute: func(_ int, local *rel.Instance) *rel.Instance {
					newTC := local.FoldDelta("ΔC", "TC", 2)
					if newTC.Len() == 0 {
						return local
					}
					next := rel.NewRelation("ΔC", 2)
					indexOn(local.Relation("E"), 0)
					addJoin(next, newTC, local.Relation("E"), []int{1}, []int{0}, []int{0, 3})
					if next.Len() > 0 {
						local.SetRelation(next)
					}
					return local
				},
			}
		},
		Frontier: []string{"ΔC"},
	}
}

// DeltaJoinProgram maintains H(x,y,z) = R(x,y) ⋈ S(y,z) under
// insertions into R and S: both sides are resident at the same hash of
// the join value y, so one inject round per batch ships only the Δ
// fragments and derives ΔH = newR ⋈ S ∪ R ⋈ newS locally (the folds
// run first, so the full sides already include the batch's own new
// facts; the double-derived newR ⋈ newS collapses in the H set). The
// view is non-recursive: no Step, no Frontier.
func DeltaJoinProgram(p int, seed uint64) mpc.DeltaProgram {
	dR, dS := mpc.DeltaName("R"), mpc.DeltaName("S")
	route := mpc.ByRelation(map[string]mpc.Router{
		dR: mpc.HashOn(p, []int{1}, seed),
		dS: mpc.HashOn(p, []int{0}, seed),
	})
	return mpc.DeltaProgram{
		Name: "Δjoin",
		Inject: func(batch int) []mpc.Round {
			return []mpc.Round{{
				Name:      fmt.Sprintf("Δjoin inject %d", batch),
				Resident:  []string{"R", "S", "H"},
				DeltaRels: []string{dR, dS},
				Route:     route,
				Compute: func(_ int, local *rel.Instance) *rel.Instance {
					newR := local.FoldDelta(dR, "R", 2)
					newS := local.FoldDelta(dS, "S", 2)
					if newR.Len() == 0 && newS.Len() == 0 {
						return local
					}
					h := local.EnsureRelation("H", 3)
					indexOn(local.Relation("S"), 0)
					indexOn(local.Relation("R"), 1)
					addJoin(h, newR, local.Relation("S"), []int{1}, []int{0}, []int{0, 1, 3})
					addJoin(h, local.Relation("R"), newS, []int{1}, []int{0}, []int{0, 1, 3})
					return local
				},
			}}
		},
	}
}

// DeltaCascadeTriangleProgram maintains the triangle view
// H(x,y,z) :- R(x,y), S(y,z), T(z,x) under insertions, as the
// incremental form of the two-round cascade (CascadeTriangleProgram):
// the intermediate K = R ⋈ S is itself a maintained resident view, so
// an update ships two delta hops — ΔK out of the (R,S) side, then ΔH
// out of the (K,T) side — instead of re-deriving K wholesale.
//
// Placement: R and S at h(y); K(x,y,z) and T(z,x) at h2(x,z), which
// co-locates the second join. Round b.1 folds ΔR/ΔS and derives
// ΔK = newR ⋈ S ∪ R ⋈ newS; ΔT is routed straight to its h2 home and
// held (as a zero-copy resident) for round b.2, which folds ΔT and ΔK
// and derives ΔH = newK ⋈ T ∪ K ⋈ newT into the resident output.
func DeltaCascadeTriangleProgram(p int, seed uint64) mpc.DeltaProgram {
	dR, dS, dT := mpc.DeltaName("R"), mpc.DeltaName("S"), mpc.DeltaName("T")
	seed2 := seed ^ 0x5bd1e995
	route1 := mpc.ByRelation(map[string]mpc.Router{
		dR: mpc.HashOn(p, []int{1}, seed),
		dS: mpc.HashOn(p, []int{0}, seed),
		dT: mpc.HashOn(p, []int{1, 0}, seed2), // T(z,x) keyed (x, z)
	})
	route2 := mpc.ByRelation(map[string]mpc.Router{
		"ΔK": mpc.HashOn(p, []int{0, 2}, seed2), // K(x,y,z) keyed (x, z)
	})
	return mpc.DeltaProgram{
		Name: "Δcascade",
		Inject: func(batch int) []mpc.Round {
			round1 := mpc.Round{
				Name:      fmt.Sprintf("Δcascade %d.1 ΔR⋈S", batch),
				Resident:  []string{"R", "S", "K", "T", "H"},
				DeltaRels: []string{dR, dS, dT},
				Route:     route1,
				Compute: func(_ int, local *rel.Instance) *rel.Instance {
					newR := local.FoldDelta(dR, "R", 2)
					newS := local.FoldDelta(dS, "S", 2)
					// ΔT stays in the inbox untouched: it is already at
					// its h2 home and round 2 folds it.
					if newR.Len() == 0 && newS.Len() == 0 {
						return local
					}
					dk := rel.NewRelation("ΔK", 3)
					indexOn(local.Relation("S"), 0)
					indexOn(local.Relation("R"), 1)
					addJoin(dk, newR, local.Relation("S"), []int{1}, []int{0}, []int{0, 1, 3})
					addJoin(dk, local.Relation("R"), newS, []int{1}, []int{0}, []int{0, 1, 3})
					if dk.Len() > 0 {
						local.SetRelation(dk)
					}
					return local
				},
			}
			round2 := mpc.Round{
				Name:      fmt.Sprintf("Δcascade %d.2 ΔK⋈T", batch),
				Resident:  []string{"R", "S", "K", "T", "H", dT},
				DeltaRels: []string{"ΔK"},
				Route:     route2,
				Compute: func(_ int, local *rel.Instance) *rel.Instance {
					newT := local.FoldDelta(dT, "T", 2)
					newK := local.FoldDelta("ΔK", "K", 3)
					if newT.Len() == 0 && newK.Len() == 0 {
						return local
					}
					h := local.EnsureRelation("H", 3)
					// Match K(x,y,z) with T(z,x) on (z, x).
					indexOn(local.Relation("T"), 0, 1)
					indexOn(local.Relation("K"), 2, 0)
					addJoin(h, newK, local.Relation("T"), []int{2, 0}, []int{0, 1}, []int{0, 1, 2})
					addJoin(h, local.Relation("K"), newT, []int{2, 0}, []int{0, 1}, []int{0, 1, 2})
					return local
				},
			}
			return []mpc.Round{round1, round2}
		},
	}
}

// DeltaSkewTriangleProgram maintains the triangle view under
// insertions with the heavy-hitter discipline of SkewTriangleProgram:
// light y-values live in HyperCube grid cells and are finished by
// local evaluation; for heavy y-values the residual acyclic query is
// processed by two semijoin-shaped hops (W = heavy-R ⋈ T at h(a),
// then H += W ⋈ heavy-S at h(c)).
//
// Every role shares one resident relation per name: a server's R holds
// whatever grid copies and heavy hash copies land there. Extra copies
// are genuine facts, so joins over them derive only valid (and
// deduplicated) tuples; the light evaluation filters heavy-y rows and
// the heavy joins select heavy-y rows, so the two paths partition the
// output exactly as in the one-shot algorithm. Placement is a pure
// content hash, so the final per-server state is batch-schedule
// invariant here too.
//
// The light path re-evaluates the triangle query inside each grid cell
// a delta lands in (bounded by cell size, not by |Δ|) — the cascade
// program is the one with per-update cost proportional to the deltas;
// this program exists to keep skew handling under maintenance too.
func DeltaSkewTriangleProgram(p int, heavy rel.ValueSet, seed uint64, grid mpc.Router) mpc.DeltaProgram {
	q := TriangleCQ()
	dR, dS, dT := mpc.DeltaName("R"), mpc.DeltaName("S"), mpc.DeltaName("T")

	hashA := mpc.HashOn(p, []int{1}, seed^0x1234)  // T(c,a) by a
	hashRA := mpc.HashOn(p, []int{0}, seed^0x1234) // R(a,b) by a
	hashC := mpc.HashOn(p, []int{2}, seed^0x9999)  // W(a,b,c) by c
	hashSC := mpc.HashOn(p, []int{1}, seed^0x9999) // S(b,c) by c

	// The grid router dispatches on the relation name, so Δ facts are
	// routed as their full counterparts.
	gridAs := func(name string, f rel.Fact) []int {
		return grid.Route(rel.Fact{Rel: name, Tuple: f.Tuple})
	}

	route1 := mpc.RouterFunc(func(f rel.Fact) []int {
		switch f.Rel {
		case dR:
			if heavy.Contains(f.Tuple[1]) {
				return hashRA.Route(f)
			}
			return gridAs("R", f)
		case dS:
			if heavy.Contains(f.Tuple[0]) {
				return hashSC.Route(f) // straight to its round-2 home
			}
			return gridAs("S", f)
		case dT:
			// T serves both the light grid and the heavy path.
			return append(gridAs("T", f), hashA.Route(f)...)
		}
		return nil
	})
	route2 := mpc.ByRelation(map[string]mpc.Router{"ΔW": hashC})

	residents := []string{"R", "S", "T", "W", "H"}
	isHeavyY := func(t rel.Tuple) bool { return heavy.Contains(t[1]) }

	return mpc.DeltaProgram{
		Name: "Δskew",
		Inject: func(batch int) []mpc.Round {
			round1 := mpc.Round{
				Name:      fmt.Sprintf("Δskew %d.1 grid + ΔW", batch),
				Resident:  residents,
				DeltaRels: []string{dR, dS, dT},
				Route:     route1,
				Compute: func(_ int, local *rel.Instance) *rel.Instance {
					newR := local.FoldDelta(dR, "R", 2)
					newT := local.FoldDelta(dT, "T", 2)

					// Split ΔS: light facts fold into the resident grid
					// copies now; heavy facts wait (zero-copy) for round 2.
					var newSLight *rel.Relation
					if ds := local.RemoveRelation(dS); ds != nil && ds.Len() > 0 {
						light := rel.Select(ds, func(t rel.Tuple) bool { return !heavy.Contains(t[0]) })
						hw := rel.Select(ds, func(t rel.Tuple) bool { return heavy.Contains(t[0]) })
						if light.Len() > 0 {
							newSLight = local.EnsureRelationSize("S", 2, light.Len()).AbsorbNew(light, dS)
						}
						if hw.Len() > 0 {
							hw.Name = "ΔSh"
							local.SetRelation(hw)
						}
					}

					// Light path: a new fact completes triangles only in
					// its own cell, so re-evaluate the query there.
					if newR.Len() > 0 || newT.Len() > 0 || (newSLight != nil && newSLight.Len() > 0) {
						h := local.EnsureRelation("H", 3)
						cq.Evaluate(q, local).Each(func(t rel.Tuple) bool {
							if !isHeavyY(t) {
								h.Add(t)
							}
							return true
						})
					}

					// Heavy path: ΔW(a,b,c) for heavy R(a,b) and T(c,a).
					heavyNewR := rel.Select(newR, isHeavyY)
					var heavyR *rel.Relation
					if r := local.Relation("R"); r != nil {
						heavyR = rel.Select(r, isHeavyY)
					}
					if heavyNewR.Len() > 0 || (heavyR != nil && heavyR.Len() > 0 && newT.Len() > 0) {
						w := rel.NewRelation("ΔW", 3)
						indexOn(local.Relation("T"), 1)
						addJoin(w, heavyNewR, local.Relation("T"), []int{0}, []int{1}, []int{0, 1, 2})
						addJoin(w, heavyR, newT, []int{0}, []int{1}, []int{0, 1, 2})
						if w.Len() > 0 {
							local.SetRelation(w)
						}
					}
					return local
				},
			}
			round2 := mpc.Round{
				Name:      fmt.Sprintf("Δskew %d.2 ΔW⋈S", batch),
				Resident:  append(append([]string(nil), residents...), "ΔSh"),
				DeltaRels: []string{"ΔW"},
				Route:     route2,
				Compute: func(_ int, local *rel.Instance) *rel.Instance {
					newSh := local.FoldDelta("ΔSh", "S", 2)
					newW := local.FoldDelta("ΔW", "W", 3)
					if newSh.Len() == 0 && newW.Len() == 0 {
						return local
					}
					h := local.EnsureRelation("H", 3)
					// Match W(a,b,c) with S(b,c) on (b, c); W's b is
					// always heavy, so light grid copies of S here never
					// join — the full-S join self-filters to the heavy side.
					indexOn(local.Relation("S"), 0, 1)
					indexOn(local.Relation("W"), 1, 2)
					addJoin(h, newW, local.Relation("S"), []int{1, 2}, []int{0, 1}, []int{0, 1, 2})
					addJoin(h, local.Relation("W"), newSh, []int{1, 2}, []int{0, 1}, []int{0, 1, 2})
					return local
				},
			}
			return []mpc.Round{round1, round2}
		},
	}
}
