// Package mpcd is the serving layer: a long-running query daemon over
// the MPC engine. It accepts CQ and Datalog queries over HTTP/JSON,
// keeps session-scoped clusters alive between queries, and turns the
// simulator's load accounting into admission control.
//
// The serving primitives come straight from the theory:
//
//   - A session's data lives on a p-server mpc.Cluster distributed by
//     the HyperCube share grid of the last repartitioning query (the
//     session's "anchor"). HyperCube grids are parallel-correct for
//     their query by construction, so the union of per-server local
//     evaluations is exactly the query answer.
//   - Parallel-correctness TRANSFER (Ameloot–Geck–Ketsman–Neven–
//     Schwentick; internal/pc's Covers) decides when the stored
//     distribution can be reused for the next query: if the anchor
//     covers it, the query runs locally on the warm fragments with
//     zero communication; otherwise the session repartitions and the
//     cost is charged against its budget.
//   - Admission control is MaxLoad accounting, one ladder
//     (Session.admit) priced before anything ships: a query that ships
//     is one round routed into outboxes (mpc.RouteRound) — a repartition
//     by its grid, a gather to server 0 — which fixes its exact loads; a
//     query over its budget or its session's is rejected typed, and an
//     admitted round is delivered as routed (mpc.Deliver), so the load
//     it was admitted on IS the load the round records.
//   - A repartition routes the session's own fragments. They are the
//     image of the anchor's placement, so a fact may sit on several
//     servers; the placement elects the least of them its owner
//     (mpc.Round.Owner) and each distinct fact is routed exactly once.
//     The loads are therefore a function of the session's fact set and
//     the new grid alone — what the anchor left behind does not show in
//     any reply — and nothing is unioned, sorted or re-loaded to get
//     them. The round runs on a successor of the session's cluster
//     (mpc.Cluster.Successor), swapped in on admission, so a session
//     holds one round of history however long it lives.
//
// Sessions are checkpointable: a session's cluster is built with no
// mpc.Option, so it keeps no rolling checkpoint; a snapshot encodes its
// live fragments as one record of a policy log, the whole server's
// snapshot being one such log landed by policy.WriteLog, which makes a
// drained server restartable with every session warm (see
// checkpoint.go).
//
// A query's reply is written once: local evaluation projects every
// fragment into one answer relation (cq.EvaluateInto), and the reply is
// encoded into one buffer under the session lock — the header through
// encoding/json, the sorted facts rendered straight into the array —
// byte-identical to json.Marshal of the QueryResponse clients decode
// (reply.encode in session.go). On the reuse path, where communication
// is zero, that evaluation and that encoding are the whole cost.
//
// Determinism is the serving invariant: for a fixed session and query
// sequence, every response body is byte-identical regardless of how
// many other sessions are in flight. Responses therefore carry only
// session-scoped state; server-wide counters (cache hits, admission
// totals) live on the /v1/statz endpoint, which makes no such promise.
package mpcd

import (
	"fmt"
	"sync"
)

// Config sizes a Server. The zero value is unusable; call
// (Config).withDefaults via New, which fills the documented defaults.
type Config struct {
	// P is the default cluster width for new sessions (sessions may
	// ask for their own). Default 8.
	P int

	// Seed decouples the server's routing hash functions (share grids,
	// the parking hash for facts outside the anchor's atoms) from the
	// data. A restarted server must be given the same seed to resume
	// byte-identically; the snapshot header records it. Default 1.
	Seed uint64

	// QueryBudget is the default per-query load budget: the maximum
	// number of facts any single server may receive while executing
	// the query (the model's MaxLoad). Requests may declare their own.
	// Default 1 << 20.
	QueryBudget int

	// SessionBudget is the default per-session communication budget:
	// total facts shipped across all of the session's repartitions and
	// gathers. Default 1 << 24.
	SessionBudget int

	// MaxConcurrent bounds queries executing at once; excess queries
	// wait. Default 16.
	MaxConcurrent int

	// MaxQueued bounds queries waiting for an execution slot; beyond
	// it the server answers with a typed "overloaded" rejection
	// instead of building an unbounded backlog. Default 1024.
	MaxQueued int

	// MaxBodyBytes bounds request bodies; larger requests get a typed
	// "body_too_large" rejection. Default 1 << 20.
	MaxBodyBytes int64

	// MaxSessions bounds live sessions. Default 65536.
	MaxSessions int

	// MaxCoverVars and MaxCoverAtoms gate the Covers check: deciding
	// transfer is Πᵖ₃-complete, so reuse detection only runs when both
	// the anchor and the candidate are small (which serving queries
	// are); larger queries skip straight to repartitioning. Defaults
	// 6 and 4, at which a pair of the gate's own size decides in
	// ≈ 1 ms on a 2-core VM (BenchmarkCoversAtGate in internal/pc).
	MaxCoverVars  int
	MaxCoverAtoms int

	// DisableReuse turns distribution reuse off: every CQ repartitions
	// even when the anchor covers it. This is the always-repartition
	// baseline the reuse gate compares against.
	DisableReuse bool

	// SnapshotDir, when set, is where POST /v1/checkpoint writes the
	// drained server's snapshot (see checkpoint.go). The endpoint takes
	// no path of its own — letting remote clients pick server-side
	// paths would be an arbitrary-write primitive.
	SnapshotDir string
}

func (c Config) withDefaults() Config {
	if c.P <= 0 {
		c.P = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.QueryBudget <= 0 {
		c.QueryBudget = 1 << 20
	}
	if c.SessionBudget <= 0 {
		c.SessionBudget = 1 << 24
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 16
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 65536
	}
	if c.MaxCoverVars <= 0 {
		c.MaxCoverVars = 6
	}
	if c.MaxCoverAtoms <= 0 {
		c.MaxCoverAtoms = 4
	}
	return c
}

// Server is the daemon state: sessions, the parsed-query +
// share-assignment cache, the cover-decision cache, admission control,
// and the drain barrier.
type Server struct {
	cfg Config

	// sessions is the live session table. Value interning is
	// session-scoped (each Session owns a rel.Dict), not server-scoped:
	// a shared dict's intern order would depend on which session parsed
	// first, and interned values leak into rendered facts — exactly the
	// cross-session coupling the determinism invariant forbids.
	sessMu   sync.Mutex
	sessions map[string]*Session
	nextID   int

	// plans caches the dict-independent part of parsed queries — share
	// assignments per cluster width, the cover-gate dimensions (see
	// plan.go) — and covers caches transfer decisions between canonical
	// query pairs. Both are keyed by canonical query text, which is the
	// same for every session, so one session's LP solve or Πᵖ₃ cover
	// search serves all of them.
	planMu sync.Mutex
	plans  map[string]*queryPlan
	covers map[string]bool

	// Admission control: slots bounds concurrent execution, waiting
	// bounds the backlog.
	slotMu  sync.Mutex
	waiting int
	slots   chan struct{}

	// Drain barrier (Server.barrier): once draining, every session
	// operation is rejected typed; Drain waits out the in-flight ones.
	drainMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup

	// stats are the server-wide counters, declared once: the struct
	// that bump mutates is the struct /v1/statz serves (see
	// StatzResponse). Its Sessions and Draining stay zero here; Statz
	// fills them in the copy it hands out.
	stats struct {
		mu sync.Mutex
		StatzResponse
	}
}

// New builds a server with no sessions.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		sessions: make(map[string]*Session),
		plans:    make(map[string]*queryPlan),
		covers:   make(map[string]bool),
		slots:    make(chan struct{}, cfg.MaxConcurrent),
	}
	return s
}

// Config returns the server's effective (default-filled) configuration.
func (s *Server) Config() Config { return s.cfg }

// acquireSlot takes one execution slot, waiting if the server is at
// MaxConcurrent, and rejects typed once the backlog exceeds MaxQueued.
// The bounded wait keeps per-session responses deterministic under
// load: a query's result depends only on its session's history, never
// on when the slot freed up.
func (s *Server) acquireSlot() *apiError {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	s.slotMu.Lock()
	if s.waiting >= s.cfg.MaxQueued {
		s.slotMu.Unlock()
		return errOverloaded(s.cfg.MaxConcurrent, s.cfg.MaxQueued)
	}
	s.waiting++
	s.slotMu.Unlock()
	s.slots <- struct{}{}
	s.slotMu.Lock()
	s.waiting--
	s.slotMu.Unlock()
	return nil
}

func (s *Server) releaseSlot() { <-s.slots }

// Drain flips the server into draining mode and blocks until every
// in-flight operation has finished. New operations are rejected with
// the typed draining error from the moment the flag flips, so the
// barrier never strands a query: everything admitted before the flip
// completes, everything after it is refused immediately. Drain is
// idempotent and safe to call concurrently; it is terminal — a drained
// server never accepts operations again (restart from a checkpoint
// instead).
func (s *Server) Drain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.inflight.Wait()
}

// Draining reports whether the drain barrier has flipped.
func (s *Server) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// Sessions returns the number of live sessions.
func (s *Server) Sessions() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}

// session looks up a live session.
func (s *Server) session(id string) (*Session, *apiError) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, errNotFound(id)
	}
	return sess, nil
}

// freshID allocates the next auto-assigned session id.
func (s *Server) freshID() string {
	s.nextID++
	return fmt.Sprintf("s%d", s.nextID)
}

// bump applies one mutation to the server-wide counters under their
// lock.
func (s *Server) bump(f func(*StatzResponse)) {
	s.stats.mu.Lock()
	f(&s.stats.StatzResponse)
	s.stats.mu.Unlock()
}
