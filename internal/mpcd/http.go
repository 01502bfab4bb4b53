package mpcd

import (
	"encoding/json"
	"errors"
	"net/http"
)

// createRequest creates a session: data from a seeded workload
// generator, explicit symbolic facts, or both.
type createRequest struct {
	ID        string   `json:"id,omitempty"`        // client-chosen id; auto-assigned when empty
	P         int      `json:"p,omitempty"`         // cluster width; server default when 0
	Budget    int      `json:"budget,omitempty"`    // session communication budget; server default when 0
	Generator string   `json:"generator,omitempty"` // join | join-skewed | triangle | triangle-skewed | cycle | path | random-graph
	N         int      `json:"n,omitempty"`         // generator size
	M         int      `json:"m,omitempty"`         // edge count (random-graph)
	Skew      float64  `json:"skew,omitempty"`      // heavy-hitter fraction (skewed generators)
	Seed      int64    `json:"seed,omitempty"`      // generator seed (random-graph)
	Facts     []string `json:"facts,omitempty"`     // symbolic facts like "R(a, b)"
}

type createResponse struct {
	Session string `json:"session"`
	P       int    `json:"p"`
	Facts   int    `json:"facts"`
	Budget  int    `json:"budget"`
}

// queryRequest runs one query in a session.
type queryRequest struct {
	Session string `json:"session"`
	Query   string `json:"query"`
	Lang    string `json:"lang,omitempty"`   // cq (default) | datalog
	Out     string `json:"out,omitempty"`    // output relation (datalog)
	Budget  int    `json:"budget,omitempty"` // per-query max-load budget; server default when 0
}

// QueryResponse is the deterministic response surface: every field is
// a pure function of the session's own request history.
type QueryResponse struct {
	Session         string   `json:"session"`
	Query           string   `json:"query"` // canonical rendering
	Path            string   `json:"path"`  // reused | repartitioned | gathered
	MaxLoad         int      `json:"max_load"`
	Comm            int      `json:"comm"`
	BudgetSpent     int      `json:"budget_spent"`
	BudgetRemaining int      `json:"budget_remaining"`
	Count           int      `json:"count"`
	Output          []string `json:"output"`
}

// SessionStatus is the GET /v1/sessions/{id} body.
type SessionStatus struct {
	Session         string `json:"session"`
	P               int    `json:"p"`
	Facts           int    `json:"facts"`
	Anchor          string `json:"anchor,omitempty"`
	BudgetTotal     int    `json:"budget_total"`
	BudgetSpent     int    `json:"budget_spent"`
	BudgetRemaining int    `json:"budget_remaining"`
	Queries         int    `json:"queries"`
	Reused          int    `json:"reused"`
	Repartitioned   int    `json:"repartitioned"`
	Gathered        int    `json:"gathered"`
}

type deleteResponse struct {
	Session string `json:"session"`
	Deleted bool   `json:"deleted"`
}

type drainResponse struct {
	Draining bool `json:"draining"`
	Sessions int  `json:"sessions"`
}

type checkpointResponse struct {
	Dir      string `json:"dir"`
	Sessions int    `json:"sessions"`
}

type healthResponse struct {
	OK       bool `json:"ok"`
	Draining bool `json:"draining"`
	Sessions int  `json:"sessions"`
}

// StatzResponse is the server-wide counter table: the one declaration
// of what the server counts, mutated in place by Server.bump and served
// by /v1/statz. The counters are interleaving-dependent snapshots
// (cache hits depend on which session parsed a query first), so they
// are deliberately OUTSIDE the deterministic response surface — no
// session response embeds them.
type StatzResponse struct {
	Sessions              int  `json:"sessions"`
	Draining              bool `json:"draining"`
	InFlight              int  `json:"in_flight"`
	Admitted              int  `json:"admitted"`
	Reused                int  `json:"reused"`
	Repartitioned         int  `json:"repartitioned"`
	Gathered              int  `json:"gathered"`
	RejectedBudget        int  `json:"rejected_budget"`
	RejectedSessionBudget int  `json:"rejected_session_budget"`
	RejectedOverloaded    int  `json:"rejected_overloaded"`
	RejectedDraining      int  `json:"rejected_draining"`
	PlanHits              int  `json:"plan_hits"`
	PlanMisses            int  `json:"plan_misses"`
	CoverHits             int  `json:"cover_hits"`
	CoverMisses           int  `json:"cover_misses"`
	CoverSkips            int  `json:"cover_skips"`
	CommTotal             int  `json:"comm_total"`
	SessionsCreated       int  `json:"sessions_created"`
	SessionsDestroyed     int  `json:"sessions_destroyed"`
	CheckpointedSessions  int  `json:"checkpointed_sessions"`
	RestoredSessions      int  `json:"restored_sessions"`
}

// Statz snapshots the server-wide counters. Sessions and Draining are
// read before stats.mu: bump callers already hold sessMu, so nesting
// the locks the other way here would invert the order.
func (s *Server) Statz() StatzResponse {
	sessions, draining := s.Sessions(), s.Draining()
	s.stats.mu.Lock()
	sz := s.stats.StatzResponse
	s.stats.mu.Unlock()
	sz.Sessions, sz.Draining = sessions, draining
	return sz
}

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/sessions      create a session (data + budget)
//	GET    /v1/sessions/{id} session status
//	DELETE /v1/sessions/{id} destroy a session
//	POST   /v1/query         run a query in a session
//	POST   /v1/drain         flip the drain barrier, wait for in-flight work
//	POST   /v1/checkpoint    drain + snapshot every session to Config.SnapshotDir
//	GET    /v1/healthz       liveness
//	GET    /v1/statz         server-wide counters (non-deterministic surface)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.barrier(s.handleCreate))
	mux.HandleFunc("GET /v1/sessions/{id}", s.barrier(s.handleGet))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.barrier(s.handleDelete))
	mux.HandleFunc("POST /v1/query", s.barrier(s.handleQuery))
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/statz", s.handleStatz)
	return mux
}

// barrier guards a session route with the drain barrier: once it has
// flipped the operation is refused typed, else it runs in flight.
func (s *Server) barrier(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.drainMu.Lock()
		if s.draining {
			s.drainMu.Unlock()
			s.bump(func(st *StatzResponse) { st.RejectedDraining++ })
			writeErr(w, errDraining())
			return
		}
		s.inflight.Add(1)
		s.drainMu.Unlock()
		defer s.inflight.Done()
		h(w, r)
	}
}

// decode reads one JSON request body, bounded by MaxBodyBytes.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) *apiError {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return errBodyTooLarge(s.cfg.MaxBodyBytes)
		}
		return errBadRequest("decoding request: %v", err)
	}
	if dec.More() {
		return errBadRequest("trailing data after request body")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Marshalling our own response structs cannot fail; keep the
		// handler total anyway.
		http.Error(w, `{"code":"internal","message":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, status, append(b, '\n'))
}

// writeBody sends one encoded JSON document, newline included.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) //lint:allow error-discard a client that hung up forfeits its response
}

func writeErr(w http.ResponseWriter, e *apiError) { writeJSON(w, e.status, e) }

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if aerr := s.decode(w, r, &req); aerr != nil {
		writeErr(w, aerr)
		return
	}
	resp, aerr := s.createSession(&req)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, aerr := s.session(r.PathValue("id"))
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, sess.status())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if aerr := s.deleteSession(id); aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, deleteResponse{Session: id, Deleted: true})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if aerr := s.decode(w, r, &req); aerr != nil {
		writeErr(w, aerr)
		return
	}
	if req.Session == "" {
		writeErr(w, errBadRequest("query needs a session id"))
		return
	}
	sess, aerr := s.session(req.Session)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	if aerr := s.acquireSlot(); aerr != nil {
		s.bump(func(st *StatzResponse) { st.RejectedOverloaded++ })
		writeErr(w, aerr)
		return
	}
	defer s.releaseSlot()
	s.bump(func(st *StatzResponse) { st.InFlight++ })
	resp, aerr := sess.run(&req)
	s.bump(func(st *StatzResponse) { st.InFlight-- })
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeBody(w, http.StatusOK, resp.body)
}

// handleDrain is registered bare: the drain request itself must pass
// the barrier it is about to raise, or it would deadlock waiting for
// its own in-flight count.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.Drain()
	writeJSON(w, http.StatusOK, drainResponse{Draining: true, Sessions: s.Sessions()})
}

// handleCheckpoint drains (idempotent) and snapshots to the
// server-configured directory. Like handleDrain it is registered bare.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SnapshotDir == "" {
		writeErr(w, errConflict("server has no snapshot directory configured"))
		return
	}
	if err := s.SaveSnapshot(s.cfg.SnapshotDir); err != nil {
		writeErr(w, errInternal(err))
		return
	}
	writeJSON(w, http.StatusOK, checkpointResponse{Dir: s.cfg.SnapshotDir, Sessions: s.Sessions()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{OK: true, Draining: s.Draining(), Sessions: s.Sessions()})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Statz())
}
