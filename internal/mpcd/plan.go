package mpcd

import (
	"slices"
	"sync"

	"mpclogic/internal/cq"
	"mpclogic/internal/datalog"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/pc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// Query languages accepted by the query endpoint.
const (
	LangCQ      = "cq"
	LangDatalog = "datalog"
)

// queryPlan is the server-wide, dict-independent part of a parsed
// query: its canonical key, the dimensions the cover gate inspects,
// and the placement of the compiled HyperCube grid per cluster width.
// Sessions keep their own ASTs (interning is session-scoped, see
// Server.sessions), but the share-exponent LP, the routing plans
// compiled from it and the Πᵖ₃ cover search depend only on the
// canonical text — which spells constants as their interned values — so
// their results are computed once here and serve every session.
type queryPlan struct {
	key      string // lang + output relation + canonical text
	lang     string
	gridable bool // CQ without negation: a HyperCube grid exists
	vars     int  // |vars(Q)|, cover-gate dimension
	atoms    int  // positive body atoms, cover-gate dimension

	mu    sync.Mutex
	grids map[gridKey]gridResult
}

// gridKey is what a grid depends on besides the query: the cluster
// width the shares multiply out to and the seed of its hash functions.
type gridKey struct {
	p    int
	seed uint64
}

type gridResult struct {
	place *placement
	err   error // no share assignment exists for this width
}

// sessionQuery is one session's parsed view of a plan: ASTs whose
// constants are interned in the session's own dict.
type sessionQuery struct {
	plan   *queryPlan
	cq     *cq.CQ           // non-nil for LangCQ
	prog   *datalog.Program // non-nil for LangDatalog
	outRel string           // relation holding the answer
	text   string           // canonical query text
}

// Query-cache caps. A client that keeps sending never-seen texts —
// alpha-variants are the cheap case — would otherwise grow a session's
// parse cache and the server's plan and cover caches without limit.
// Every cached value is recomputable and dict-independent, so a full
// cache is emptied before the next insert: only the statz hit/miss
// counters can tell. The caps sit far above what any measured workload
// holds (serve_reuse adds one entry of each per cold op, one op in
// eight; loadgen sends nine fixed texts); DESIGN.md prices them.
const (
	maxParsed = 1024 // per session
	maxPlans  = 4096
	maxCovers = 4096
)

// putCapped stores v under k in m, emptying m first when it already
// holds limit entries.
func putCapped[V any](m map[string]V, limit int, k string, v V) {
	if len(m) >= limit {
		clear(m)
	}
	m[k] = v
}

// parseQuery parses src against the session's dict and resolves the
// shared plan, consulting the session's raw-text cache first so a
// repeated query costs one map lookup. Callers hold sess.mu.
func (sess *Session) parseQuery(lang, src, out string) (*sessionQuery, *apiError) {
	if lang == "" {
		lang = LangCQ
	}
	rawKey := lang + "\x00" + out + "\x00" + src
	if sq, ok := sess.parsed[rawKey]; ok {
		sess.srv.bump(func(st *StatzResponse) { st.PlanHits++ })
		return sq, nil
	}
	sq := &sessionQuery{}
	switch lang {
	case LangCQ:
		q, err := cq.Parse(sess.dict, src)
		if err == nil {
			// A body that reads one relation at two arities parses, but
			// no instance holds the facts it requires.
			_, err = q.Schema()
		}
		if err != nil {
			return nil, errParse(err)
		}
		sq.cq, sq.outRel, sq.text = q, q.Head.Rel, q.String()
	case LangDatalog:
		if out == "" {
			return nil, errBadRequest("datalog queries need an output relation (set \"out\")")
		}
		p, err := datalog.Parse(sess.dict, src)
		if err != nil {
			return nil, errParse(err)
		}
		sq.prog, sq.outRel, sq.text = p, out, p.String()
	default:
		return nil, errBadRequest("unknown query language %q (want %q or %q)", lang, LangCQ, LangDatalog)
	}
	sq.plan = sess.srv.planFor(lang, sq.text, sq.outRel, sq.cq)
	putCapped(sess.parsed, maxParsed, rawKey, sq)
	return sq, nil
}

// planFor returns the shared plan for a canonical query, creating it
// on first sight.
func (s *Server) planFor(lang, canon, out string, q *cq.CQ) *queryPlan {
	key := lang + "\x00" + out + "\x00" + canon
	s.planMu.Lock()
	defer s.planMu.Unlock()
	if pl, ok := s.plans[key]; ok {
		s.bump(func(st *StatzResponse) { st.PlanHits++ })
		return pl
	}
	pl := &queryPlan{key: key, lang: lang, grids: make(map[gridKey]gridResult)}
	if q != nil {
		pl.gridable = !q.HasNegation()
		pl.vars = len(q.Vars())
		pl.atoms = len(q.Body)
	}
	putCapped(s.plans, maxPlans, key, pl)
	s.bump(func(st *StatzResponse) { st.PlanMisses++ })
	return pl
}

// placementFor returns the placement of the plan's HyperCube grid on p
// servers under seed: the share-exponent LP is solved, the atoms are
// compiled into routing plans and the placement is built once per
// width, so anchors that alternate — in one session or across sessions
// — do not recompile per request. q is the caller's AST for the same
// canonical text; the LP and the compiler see only variables, atom
// structure and constant values, so any session's parse yields the same
// grid. A placement is immutable once built and safe to route through
// from every session at once.
func (pl *queryPlan) placementFor(q *cq.CQ, p int, seed uint64) (*placement, *apiError) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	key := gridKey{p: p, seed: seed}
	r, ok := pl.grids[key]
	if !ok {
		var grid *hypercube.Grid
		if grid, r.err = hypercube.NewOptimalGrid(q, p, seed); r.err == nil {
			r.place = newPlacement(grid, p, seed)
		}
		pl.grids[key] = r
	}
	if r.err != nil {
		return nil, errBadRequest("no share assignment for %s on p=%d: %v", q, p, r.err)
	}
	return r.place, nil
}

// parkSalt decorrelates the parking hash (facts outside the anchor's
// atoms, see placement) from the grid's per-dimension hashes.
const parkSalt = 0x7061726b6d706364 // "parkmpcd"

// placement is where an anchor puts a session's facts: the query's grid
// with a parking fallback. Facts matching no atom of the query are
// irrelevant to it but still belong to the session, so they park on a
// hashed server instead of being dropped (Grid.Targets routes
// non-matching facts nowhere). A parked fact can never occur in a
// minimal valuation of the anchor — or of any query the anchor covers,
// whose required facts are subsets of the anchor's — so parking
// preserves parallel correctness for both. The fragments a repartition
// leaves are exactly this placement's image (server s holds f iff s is
// in Route(f)), which is what lets the next repartition elect one owner
// per fact from the placement alone.
type placement struct {
	grid       *hypercube.Grid
	p, seed    uint64
	replicated []string // relations the grid may put on several servers per fact
	servers    []int    // 0 … p−1: a parked fact's one-server Route is a window of it
}

// newPlacement returns grid's placement on a p-server session. A
// relation is placed once per fact unless an atom over it leaves a
// dimension with a share free, or two atoms are over it.
func newPlacement(grid *hypercube.Grid, p int, seed uint64) *placement {
	pl := &placement{grid: grid, p: uint64(p), seed: seed, servers: policy.AllNodes(p)}
	for i, a := range grid.Query.Body {
		again := slices.ContainsFunc(grid.Query.Body[:i], func(b cq.Atom) bool { return b.Rel == a.Rel })
		if (again || grid.ReplicationOf(a) > 1) && !slices.Contains(pl.replicated, a.Rel) {
			pl.replicated = append(pl.replicated, a.Rel)
		}
	}
	return pl
}

// NumNodes makes the placement a policy.Policy: the thing reuse is sound
// because of is a thing package pc can be asked about.
func (pl *placement) NumNodes() int { return int(pl.p) }

// Route implements mpc.Router. Neither a fact one atom matches nor a
// parked one costs an allocation: both get a read-only window of a table
// the placement holds, capped at its length.
func (pl *placement) Route(f rel.Fact) []int {
	if ts := pl.grid.Targets(f); len(ts) > 0 {
		return ts
	}
	return pl.park(f)
}

// RouteRelation implements mpc.RelationRouter: Route for the tuples of
// one relation, its grid restriction resolved once.
func (pl *placement) RouteRelation(name string, arity int) func(rel.Tuple) []int {
	g := pl.grid.Relation(name, arity)
	return func(t rel.Tuple) []int {
		if ts := g.Targets(t); len(ts) > 0 {
			return ts
		}
		return pl.park(rel.Fact{Rel: name, Tuple: t})
	}
}

// park is the one server a fact no atom matches is placed on.
func (pl *placement) park(f rel.Fact) []int {
	s := int(rel.Mix64(f.Hash()^pl.seed^parkSalt) % pl.p)
	return pl.servers[s : s+1 : s+1]
}

// owner is the placement as the mpc.Round.Owner of the repartition that
// replaces it: of the servers Route put a fact on, the least ships it.
// A fact placed once — parked, or of a relation the grid does not
// replicate — is owned wherever it sits (−1), and a relation all of
// whose facts are has no owner function at all (nil), so its facts cost
// no call and no hash.
func (pl *placement) owner(name string, arity int) func(rel.Tuple) int {
	g := pl.grid.Relation(name, arity)
	if g.Empty() || !slices.Contains(pl.replicated, name) {
		return nil
	}
	return func(t rel.Tuple) int {
		if least, ok := g.First(t); ok {
			return least
		}
		return -1
	}
}

// covers decides whether the anchor's distribution can be reused for
// cand — parallel-correctness transfer, with caching and a size gate.
// Deciding Covers is Πᵖ₃-complete, so the exponential search only runs
// when both queries are small enough (MaxCoverVars/MaxCoverAtoms); at
// the default gate a pair of the gate's own size, 6 variables and 4
// atoms a side, decides in ≈ 1 ms and serve_reuse's cold pair in
// ≈ 20 µs (BenchmarkCoversAtGate, BenchmarkCoversServing; 2-core VM).
// Bigger queries skip straight to repartitioning rather than stall the
// serving path. Identical canonical text short-circuits: transfer is
// reflexive. Decisions
// depend only on the canonical text pair — injectively renaming the
// interned constants changes nothing the search compares — so the
// cache is server-wide even though ASTs are per-session.
func (s *Server) coversFor(anchor, cand *sessionQuery) bool {
	a, c := anchor.plan, cand.plan
	if a.lang != LangCQ || c.lang != LangCQ || !a.gridable || !c.gridable {
		return false
	}
	if a.key == c.key {
		s.bump(func(st *StatzResponse) { st.CoverHits++ })
		return true
	}
	if a.vars > s.cfg.MaxCoverVars || c.vars > s.cfg.MaxCoverVars ||
		a.atoms > s.cfg.MaxCoverAtoms || c.atoms > s.cfg.MaxCoverAtoms {
		s.bump(func(st *StatzResponse) { st.CoverSkips++ })
		return false
	}
	key := a.key + "\x01" + c.key
	s.planMu.Lock()
	v, ok := s.covers[key]
	s.planMu.Unlock()
	if ok {
		s.bump(func(st *StatzResponse) { st.CoverHits++ })
		return v
	}
	v, _, err := pc.Covers(anchor.cq, cand.cq)
	if err != nil {
		// Covers rejects query shapes it cannot decide (negation);
		// gridable filtered those above, but stay conservative: an
		// undecided pair repartitions, which is always correct.
		v = false
	}
	s.planMu.Lock()
	putCapped(s.covers, maxCovers, key, v)
	s.planMu.Unlock()
	s.bump(func(st *StatzResponse) { st.CoverMisses++ })
	return v
}
