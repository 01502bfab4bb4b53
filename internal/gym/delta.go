package gym

import (
	"fmt"

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
