package mpcd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"sync"

	"mpclogic/internal/cq"
	"mpclogic/internal/datalog"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// Session is one client's long-lived state: a p-server cluster holding
// its data (distributed by the anchor query's grid once the first
// repartition has run), its own value dict, its budget ledger, and its
// parsed-query cache. Every session operation serializes on mu, so a
// session's responses are a pure function of its own request history —
// the determinism invariant the serving tests pin down.
type Session struct {
	ID string

	mu      sync.Mutex
	srv     *Server
	p       int
	seed    uint64
	dict    *rel.Dict
	names   nameCheck // how much of dict the replies have checked
	cluster *mpc.Cluster
	anchor  *sessionQuery // query whose grid distributed the data; nil before the first repartition
	parsed  map[string]*sessionQuery
	facts   int

	budgetTotal int
	budgetSpent int

	queries       int
	reused        int
	repartitioned int
	gathered      int
}

// Serving-path labels carried in query responses.
const (
	PathReused        = "reused"
	PathRepartitioned = "repartitioned"
	PathGathered      = "gathered"
)

// sessionIDPat bounds client-chosen session ids. They no longer become
// file names (a snapshot is one file), but the pattern stays as input
// validation, at create and at restore.
var sessionIDPat = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// Generator size cap: a create request is a few hundred bytes, so the
// generated instance is the one thing a tiny request can make huge.
const maxGenSize = 1 << 22

// maxSessionP is the per-session cluster cap: a create may ask for up
// to this many servers, and a snapshot naming more, or none, is
// refused.
const maxSessionP = 1 << 12

// createSession validates the request, materializes the data, and
// installs the session round-robin across p servers — the model's
// "evenly spread, no particular scheme" starting state. The response
// is built before the session is published so its fields never race
// with a concurrent query.
//
// Everything that can refuse the request without its data is checked
// before the data is generated, so a refused create costs no
// generation. A request wrong in two ways gets the first error of this
// order:
//
//  1. 400 bad_request: the generator's n or m out of bounds (for
//     random-graph also an edge count, m or 4n by default, over
//     n(n−1) or maxGenSize), p over the cluster cap, an unknown
//     generator;
//  2. 429 session_limit: MaxSessions sessions are live;
//  3. 400 bad_request: an id that does not match sessionIDPat;
//  4. 409 conflict: an id that is already live;
//  5. 400 parse_error or bad_request: a fact that does not parse, or
//     one at another arity than the data holds its relation.
//
// The limit and the conflict are checked again, under the same lock,
// when the session is published: a concurrent create may have taken
// the last slot or the id while this one generated.
func (s *Server) createSession(req *createRequest) (createResponse, *apiError) {
	if req.Generator != "" && (req.N <= 0 || req.N > maxGenSize || req.M > maxGenSize) {
		return createResponse{}, errBadRequest("generator %q needs 0 < n ≤ %d (and m ≤ %d)", req.Generator, maxGenSize, maxGenSize)
	}
	if req.Generator == "random-graph" {
		if m, edges := randomGraphM(req), req.N*(req.N-1); m > edges || m > maxGenSize {
			return createResponse{}, errBadRequest("generator %q needs m ≤ n(n−1) = %d (and m ≤ %d), got m = %d", req.Generator, edges, maxGenSize, m)
		}
	}
	p := req.P
	if p <= 0 {
		p = s.cfg.P
	}
	if p > maxSessionP {
		return createResponse{}, errBadRequest("p = %d exceeds the per-session cluster cap %d", p, maxSessionP)
	}
	generate, ok := generators[req.Generator]
	if !ok {
		return createResponse{}, errBadRequest("unknown generator %q", req.Generator)
	}
	budget := req.Budget
	if budget <= 0 {
		budget = s.cfg.SessionBudget
	}
	s.sessMu.Lock()
	aerr := s.admitLocked(req.ID)
	s.sessMu.Unlock()
	if aerr != nil {
		return createResponse{}, aerr
	}
	dict, inst := rel.NewDict(), generate(req)
	if aerr := addFacts(inst, req.Facts, dict); aerr != nil {
		return createResponse{}, aerr
	}
	sess := &Session{
		srv:         s,
		p:           p,
		seed:        s.cfg.Seed,
		dict:        dict,
		parsed:      make(map[string]*sessionQuery),
		facts:       inst.Len(),
		budgetTotal: budget,
	}
	sess.cluster = mpc.NewCluster(p)
	sess.cluster.LoadRoundRobin(inst)

	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if aerr := s.admitLocked(req.ID); aerr != nil {
		return createResponse{}, aerr
	}
	id := req.ID
	for id == "" || s.sessions[id] != nil {
		id = s.freshID()
	}
	sess.ID = id
	s.sessions[id] = sess
	s.bump(func(st *StatzResponse) { st.SessionsCreated++ })
	return createResponse{Session: id, P: p, Facts: sess.facts, Budget: budget}, nil
}

// admitLocked checks the session table for a create of id (empty: a
// fresh id is drawn at publish): the limit, the id's pattern, and a
// conflict, in that order. The caller holds sessMu.
func (s *Server) admitLocked(id string) *apiError {
	switch {
	case len(s.sessions) >= s.cfg.MaxSessions:
		return errSessionLimit(s.cfg.MaxSessions)
	case id == "":
		return nil
	case !sessionIDPat.MatchString(id):
		return errBadRequest("session id must match %s", sessionIDPat)
	case s.sessions[id] != nil:
		return errConflict("session %q already exists", id)
	}
	return nil
}

// generators builds a create request's seeded workload by generator
// name; "" is no generator, an empty instance.
var generators = map[string]func(req *createRequest) *rel.Instance{
	"":                func(*createRequest) *rel.Instance { return rel.NewInstance() },
	"join":            func(req *createRequest) *rel.Instance { return workload.JoinSkewFree(req.N) },
	"join-skewed":     func(req *createRequest) *rel.Instance { return workload.JoinSkewed(req.N, skewOr(req.Skew, 0.1)) },
	"triangle":        func(req *createRequest) *rel.Instance { return workload.TriangleSkewFree(req.N) },
	"triangle-skewed": func(req *createRequest) *rel.Instance { return workload.TriangleSkewed(req.N, skewOr(req.Skew, 0.1)) },
	"cycle":           func(req *createRequest) *rel.Instance { return workload.CycleGraph(req.N) },
	"path":            func(req *createRequest) *rel.Instance { return workload.PathGraph(req.N) },
	"random-graph": func(req *createRequest) *rel.Instance {
		return workload.RandomGraph(req.N, randomGraphM(req), req.Seed)
	},
}

// randomGraphM is a random-graph create's edge count: m, or 4n when m
// is not given.
func randomGraphM(req *createRequest) int {
	if req.M > 0 {
		return req.M
	}
	return 4 * req.N
}

// addFacts adds a create request's explicit symbolic facts to the
// generated instance.
func addFacts(inst *rel.Instance, facts []string, dict *rel.Dict) *apiError {
	for _, fs := range facts {
		f, err := rel.ParseFact(dict, fs)
		if err != nil {
			return errParse(err)
		}
		if r := inst.Relation(f.Rel); r != nil && r.Arity != len(f.Tuple) {
			return errBadRequest("fact %s: the data holds %s at arity %d", fs, f.Rel, r.Arity)
		}
		inst.Add(f)
	}
	return nil
}

func skewOr(v, def float64) float64 {
	if v <= 0 || v >= 1 {
		return def
	}
	return v
}

// deleteSession removes a live session.
func (s *Server) deleteSession(id string) *apiError {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if s.sessions[id] == nil {
		return errNotFound(id)
	}
	delete(s.sessions, id)
	s.bump(func(st *StatzResponse) { st.SessionsDestroyed++ })
	return nil
}

// run executes one query against the session, choosing among the three
// serving paths:
//
//   - reuse: the anchor's distribution covers the query (pc transfer),
//     so it evaluates on the warm fragments with zero communication;
//   - repartition: redistribute the data by the query's own HyperCube
//     grid — routing fixes the exact per-server load before anything
//     ships, and the query is rejected typed instead of run if the
//     load exceeds its budget or the shipment overdraws the session;
//   - gather: queries outside the single-round fragment (Datalog
//     programs, CQ¬) ship every fact to server 0 and evaluate there,
//     charged |I| against both budgets; the distribution stays warm.
//
// Both paths that ship run one routed round (ship), admitted on one
// budget ladder (admit) on a price fixed before anything is copied. A
// rejected query leaves the session byte-for-byte unchanged.
func (sess *Session) run(req *queryRequest) (*reply, *apiError) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sq, aerr := sess.parseQuery(req.Lang, req.Query, req.Out)
	if aerr != nil {
		return nil, aerr
	}
	qBudget := req.Budget
	if qBudget <= 0 {
		qBudget = sess.srv.cfg.QueryBudget
	}

	resp := &reply{QueryResponse: QueryResponse{Session: sess.ID, Query: sq.text}}
	var out *rel.Instance
	switch {
	case sq.plan.gridable && sess.anchor != nil &&
		!sess.srv.cfg.DisableReuse && sess.srv.coversFor(sess.anchor, sq):
		out = evalLocal(sq.cq, sess.cluster)
		resp.Path = PathReused
		sess.reused++
		sess.srv.bump(func(st *StatzResponse) { st.Reused++ })
	case sq.plan.gridable:
		maxLoad, total, aerr := sess.repartition(sq, qBudget)
		if aerr != nil {
			return nil, aerr
		}
		out = evalLocal(sq.cq, sess.cluster)
		resp.Path, resp.MaxLoad, resp.Comm = PathRepartitioned, maxLoad, total
		sess.repartitioned++
		sess.srv.bump(func(st *StatzResponse) { st.Repartitioned++ })
	default:
		gathered, maxLoad, total, aerr := sess.gather(sq, qBudget)
		if aerr != nil {
			return nil, aerr
		}
		out = gathered
		resp.Path, resp.MaxLoad, resp.Comm = PathGathered, maxLoad, total
		sess.gathered++
		sess.srv.bump(func(st *StatzResponse) { st.Gathered++ })
	}
	sess.queries++
	resp.BudgetSpent = sess.budgetSpent
	resp.BudgetRemaining = sess.budgetTotal - sess.budgetSpent
	resp.Count = out.Len()
	if aerr := resp.encode(out, sess.dict, &sess.names); aerr != nil {
		return nil, aerr
	}
	sess.srv.bump(func(st *StatzResponse) { st.Admitted++; st.CommTotal += resp.Comm })
	return resp, nil
}

// evalLocal evaluates q on every fragment of c and unions the results
// — sound and complete exactly when c's distribution is
// parallel-correct for q, which every caller guarantees: the anchor
// grid is by construction, reuse runs only when transfer says the
// anchor covers q, and a gather leaves every fact on server 0.
//
// Every fragment projects into the one answer relation, reserved once
// for all of them, which is where a tuple two servers both derive is
// found to be one tuple.
func evalLocal(q *cq.CQ, c *mpc.Cluster) *rel.Instance {
	out := rel.NewInstance()
	cq.EvaluateInto(out.EnsureRelation(q.Head.Rel, len(q.Head.Args)), q, fragments(c)...)
	return out
}

// fragments returns c's live fragments, server by server. Callers hold
// the session lock, which keeps a session's cluster still.
func fragments(c *mpc.Cluster) []*rel.Instance {
	fragments := make([]*rel.Instance, c.P())
	for i := range fragments {
		fragments[i] = c.Server(i)
	}
	return fragments
}

// repartition is the admission-controlled redistribution: one round
// (ship) routed by the query's placement, whose successor the session
// adopts with the query as its anchor — so a session holds one round
// of history. Each distinct fact goes through the grid once, from the
// owner the previous anchor's placement elects, so the loads are what a
// duplicate-free layout would record, whatever that anchor left behind.
func (sess *Session) repartition(sq *sessionQuery, qBudget int) (maxLoad, total int, aerr *apiError) {
	place, aerr := sq.plan.placementFor(sq.cq, sess.p, sess.seed)
	if aerr != nil {
		return 0, 0, aerr
	}
	return sess.reship(sq, place, qBudget)
}

// anchorOwner is the anchor's placement as the mpc.Round.Owner of a
// round that ships the session's facts (placement.owner) — what ship
// routes each fact by and heldFacts counts it by — or nil before the
// first anchor, whose round-robin layout holds every fact once.
func (sess *Session) anchorOwner() (func(name string, arity int) func(rel.Tuple) int, *apiError) {
	a := sess.anchor
	if a == nil {
		return nil, nil
	}
	place, aerr := a.plan.placementFor(a.cq, sess.p, sess.seed)
	if aerr != nil {
		return nil, aerr
	}
	return place.owner, nil
}

// reship is repartition below the choice of router: ship, then adopt
// the successor and charge the shipment.
func (sess *Session) reship(sq *sessionQuery, router mpc.Router, qBudget int) (maxLoad, total int, aerr *apiError) {
	next, maxLoad, total, aerr := sess.ship("repartition "+sq.text, router, qBudget)
	if aerr != nil {
		return 0, 0, aerr
	}
	sess.cluster, sess.anchor = next, sq
	sess.budgetSpent += total
	return maxLoad, total, nil
}

// gather is the fallback for queries the single-round machinery does
// not cover: one round (ship) sends every fact to server 0 — everywhere
// on a one-server cluster, mpc.Broadcast(1) — and the query evaluates
// on the round's successor, a CQ¬ by evalLocal, a Datalog program on
// server 0's round-private inbox; the successor is dropped, so the
// distribution stays warm. The price, |I| on both budgets, is the
// session's fact count, so a refused gather is refused before it routes
// or copies anything. A program the evaluator refuses is charged nothing.
func (sess *Session) gather(sq *sessionQuery, qBudget int) (out *rel.Instance, maxLoad, total int, aerr *apiError) {
	if aerr := sess.admit(sess.facts, sess.facts, qBudget); aerr != nil {
		return nil, 0, 0, aerr
	}
	next, maxLoad, total, aerr := sess.ship("gather "+sq.text, mpc.Broadcast(1), qBudget)
	if aerr != nil {
		return nil, 0, 0, aerr
	}
	if sq.prog == nil {
		out = evalLocal(sq.cq, next)
	} else if res, err := datalog.EvalQuery(sq.prog, next.Server(0), sq.outRel); err != nil {
		return nil, 0, 0, errBadRequest("datalog evaluation: %v", err)
	} else {
		out = res
	}
	sess.budgetSpent += total
	return out, maxLoad, total, nil
}

// ship is the one round a query that moves data runs, on a successor
// of the session's cluster, which shares its fragments. It routes every
// fact once, from the owner the anchor's placement elects
// (mpc.RouteRound: exact loads, nothing moved); refuses as internal a
// round that did not route the session's fact count (the fragments are
// not the anchor placement's image); admits on the routed loads; and
// delivers (mpc.Deliver), checking the round recorded the loads it was
// admitted on. The session is untouched: the caller adopts or drops the
// successor and charges the ledger.
func (sess *Session) ship(name string, router mpc.Router, qBudget int) (next *mpc.Cluster, maxLoad, total int, aerr *apiError) {
	owner, aerr := sess.anchorOwner()
	if aerr != nil {
		return nil, 0, 0, errInternal(fmt.Errorf("mpcd: the grid of anchor %s is gone: %s", sess.anchor.text, aerr.Message))
	}
	next = sess.cluster.Successor()
	routed, err := next.RouteRound(mpc.Round{Name: name, Route: router, Owner: owner})
	if err != nil {
		return nil, 0, 0, errInternal(err)
	}
	if routed.Routed != sess.facts {
		return nil, 0, 0, errInternal(fmt.Errorf("mpcd: routed %d facts of a session holding %d", routed.Routed, sess.facts))
	}
	maxLoad, total = routed.MaxLoad, routed.TotalComm
	if aerr := sess.admit(maxLoad, total, qBudget); aerr != nil {
		return nil, 0, 0, aerr
	}
	stats, err := next.Deliver(routed)
	if err != nil {
		return nil, 0, 0, errInternal(err)
	}
	if stats.MaxLoad != maxLoad || stats.TotalComm != total {
		return nil, 0, 0, errInternal(fmt.Errorf("mpcd: admitted on max load %d / comm %d but the round recorded %d / %d",
			maxLoad, total, stats.MaxLoad, stats.TotalComm))
	}
	return next, maxLoad, total, nil
}

// admit is the budget ladder: max load against the query's budget,
// then total communication against the session's remainder, the first
// refusal counted in statz. The caller charges an admitted query.
func (sess *Session) admit(maxLoad, total, qBudget int) *apiError {
	if maxLoad > qBudget {
		sess.srv.bump(func(st *StatzResponse) { st.RejectedBudget++ })
		return errBudgetExceeded(maxLoad, qBudget)
	}
	if remaining := sess.budgetTotal - sess.budgetSpent; total > remaining {
		sess.srv.bump(func(st *StatzResponse) { st.RejectedSessionBudget++ })
		return errSessionBudget(total, remaining)
	}
	return nil
}

// reply is one query's response as run leaves it: the header fields,
// for the callers that look at them, and the encoded body handleQuery
// writes. Output stays nil — the answer is rendered once, into body.
type reply struct {
	QueryResponse
	body []byte
}

// encode renders the reply into r.body: json.Marshal(QueryResponse{…,
// Output: the sorted facts of out spelled through d}) plus "\n", byte
// for byte, without building the []string or walking the answer a
// second time. The header goes through json.Marshal itself; each fact
// is rendered straight into the buffer. A fact's bytes are its relation
// name, d's names, "#" and the digits of an un-interned value, and the
// punctuation "(,)" — so when names finds every name of d plain and
// every relation of out has a plain name, each fact is kept as
// rendered, unscanned. Otherwise each fact is kept if every byte of it
// is one encoding/json copies through verbatim, and handed to
// encoding/json if not. The caller holds the session lock: d is the
// session's dict and names its check.
func (r *reply) encode(out *rel.Instance, d *rel.Dict, names *nameCheck) *apiError {
	// Output is the last field and the only one that can be null, so
	// the header ends `"output":null}`; the array goes where null is.
	hdr, err := json.Marshal(&r.QueryResponse)
	hdr, ok := bytes.CutSuffix(hdr, []byte("null}"))
	if err != nil || !ok {
		return errInternal(fmt.Errorf("mpcd: encoding a reply header: %q, %v", hdr, err))
	}
	// 24 bytes a fact — a binary fact over eight-digit values, quotes and
	// comma included — is a starting size, not a bound: append grows it.
	buf := make([]byte, 0, len(hdr)+24*r.Count+2)
	buf = append(append(buf, hdr...), '[')
	plain := names.plain(d)
	for _, name := range out.RelationNames() {
		plain = plain && jsonVerbatim(name)
	}
	facts := 0
	out.Each(func(f rel.Fact) bool {
		if facts++; facts > 1 {
			buf = append(buf, ',')
		}
		start := len(buf)
		buf = f.AppendWith(append(buf, '"'), d)
		if plain || jsonVerbatim(buf[start+1:]) {
			buf = append(buf, '"')
			return true
		}
		var quoted []byte
		quoted, err = json.Marshal(string(buf[start+1:]))
		buf = append(buf[:start], quoted...)
		return err == nil
	})
	if err != nil {
		return errInternal(fmt.Errorf("mpcd: encoding a reply: %v", err))
	}
	r.body = append(buf, ']', '}', '\n')
	return nil
}

// jsonVerbatim reports whether json.Marshal would copy every byte of s
// into a string literal unchanged: printable ASCII other than the
// quote, the backslash and the three characters it escapes for HTML.
// Anything else — control bytes, and every byte of a multi-byte or
// invalid UTF-8 sequence — is encoding/json's to spell.
func jsonVerbatim[S ~string | ~[]byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// nameCheck is how far reply.encode has checked a session's dict: its
// first checked names are plain — jsonVerbatim — unless escapes is set,
// which then stays set. A dict only grows, and it grows under the
// session lock (parseQuery) or before the session is published
// (createSession's facts, a snapshot's dict) — never while encode,
// which holds that lock, reads it. So a reply checks only the names
// interned since the one before, and a session checks each name once.
type nameCheck struct {
	checked int
	escapes bool
}

// plain reports whether every name of d is plain, checking the names
// interned since the last call.
func (c *nameCheck) plain(d *rel.Dict) bool {
	var name []byte
	for ; !c.escapes && c.checked < d.Len(); c.checked++ {
		name = d.AppendName(name[:0], rel.Value(c.checked))
		c.escapes = !jsonVerbatim(name)
	}
	return !c.escapes
}

// status snapshots the session for GET /v1/sessions/{id}.
func (sess *Session) status() SessionStatus {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.statusLocked()
}

func (sess *Session) statusLocked() SessionStatus {
	st := SessionStatus{
		Session:         sess.ID,
		P:               sess.p,
		Facts:           sess.facts,
		BudgetTotal:     sess.budgetTotal,
		BudgetSpent:     sess.budgetSpent,
		BudgetRemaining: sess.budgetTotal - sess.budgetSpent,
		Queries:         sess.queries,
		Reused:          sess.reused,
		Repartitioned:   sess.repartitioned,
		Gathered:        sess.gathered,
	}
	if sess.anchor != nil {
		st.Anchor = sess.anchor.text
	}
	return st
}
