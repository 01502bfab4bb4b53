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
//     programs, CQ¬) evaluate centrally on the union of the fragments,
//     charged |I| against both budgets; the distribution stays warm.
//
// Both paths that ship climb one budget ladder (admit) on a price fixed
// before anything is copied. A rejected query leaves the session
// byte-for-byte unchanged.
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
		out = sess.evalLocal(sq.cq)
		resp.Path = PathReused
		sess.reused++
		sess.srv.bump(func(st *StatzResponse) { st.Reused++ })
	case sq.plan.gridable:
		maxLoad, total, aerr := sess.repartition(sq, qBudget)
		if aerr != nil {
			return nil, aerr
		}
		out = sess.evalLocal(sq.cq)
		resp.Path, resp.MaxLoad, resp.Comm = PathRepartitioned, maxLoad, total
		sess.repartitioned++
		sess.srv.bump(func(st *StatzResponse) { st.Repartitioned++ })
	default:
		gathered, cost, aerr := sess.gather(sq, qBudget)
		if aerr != nil {
			return nil, aerr
		}
		out = gathered
		resp.Path, resp.MaxLoad, resp.Comm = PathGathered, cost, cost
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

// evalLocal evaluates q on every server's fragment and unions the
// results — sound and complete exactly when the current distribution
// is parallel-correct for q, which both callers guarantee: the anchor
// grid is parallel-correct for the anchor by construction, and the
// reuse path only runs when transfer says the anchor covers q.
//
// Every fragment projects into the one answer relation, reserved once
// for all of them, which is where a tuple two servers both derive is
// found to be one tuple.
func (sess *Session) evalLocal(q *cq.CQ) *rel.Instance {
	out := rel.NewInstance()
	cq.EvaluateInto(out.EnsureRelation(q.Head.Rel, len(q.Head.Args)), q, sess.fragments()...)
	return out
}

// fragments returns the session's live fragments, server by server.
// Callers hold sess.mu, which keeps them still.
func (sess *Session) fragments() []*rel.Instance {
	fragments := make([]*rel.Instance, sess.cluster.P())
	for i := range fragments {
		fragments[i] = sess.cluster.Server(i)
	}
	return fragments
}

// repartition is the admission-controlled redistribution, in a single
// routing pass over the session's own fragments. They are the image of
// the previous anchor's placement, so a fact may sit on several servers:
// the placement elects the one that routes it (mpc.Round.Owner; the
// round-robin layout before the first anchor holds every fact once), so
// each distinct fact goes through the query's grid once and the loads —
// sums over destinations, a function of the fact set and the grid — are
// what a duplicate-free layout would record, whatever that anchor left
// behind. Routed (mpc.RouteRound), every fact sits in an outbox and the
// loads are exact, but nothing has shipped: the query is admitted or
// rejected on them against the query and session budgets, and only an
// admitted plan is delivered (mpc.Deliver), recording the loads it was
// admitted on — the check after Deliver asserts it. The round runs on a
// successor of the session's cluster, which shares the fragments: a
// rejection drops it, the session — cluster, anchor, ledger — untouched,
// and an admission swaps it in, so a session holds one round of history.
func (sess *Session) repartition(sq *sessionQuery, qBudget int) (maxLoad, total int, aerr *apiError) {
	place, aerr := sq.plan.placementFor(sq.cq, sess.p, sess.seed)
	if aerr != nil {
		return 0, 0, aerr
	}
	return sess.reship(sq, place, qBudget)
}

// anchorOwner is the anchor's placement as the mpc.Round.Owner of the
// repartition that replaces it (placement.owner) — what reship routes
// each fact by and heldFacts counts it by — or nil before the first
// anchor, whose round-robin layout holds every fact once.
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

// reship is repartition below the choice of router: route once, admit
// on the routed loads, deliver.
func (sess *Session) reship(sq *sessionQuery, router mpc.Router, qBudget int) (maxLoad, total int, aerr *apiError) {
	owner, aerr := sess.anchorOwner()
	if aerr != nil {
		return 0, 0, errInternal(fmt.Errorf("mpcd: the grid of anchor %s is gone: %s", sess.anchor.text, aerr.Message))
	}
	round := mpc.Round{Name: "repartition " + sq.text, Route: router, Owner: owner}
	next := sess.cluster.Successor()
	routed, err := next.RouteRound(round)
	if err != nil {
		return 0, 0, errInternal(err)
	}
	if routed.Routed != sess.facts {
		// Some fact had no owner among its holders, or two: the
		// fragments are not the image of the anchor's placement.
		return 0, 0, errInternal(fmt.Errorf("mpcd: routed %d facts of a session holding %d", routed.Routed, sess.facts))
	}
	maxLoad, total = routed.MaxLoad, routed.TotalComm
	if aerr := sess.admit(maxLoad, total, qBudget); aerr != nil {
		return 0, 0, aerr
	}
	stats, err := next.Deliver(routed)
	if err != nil {
		return 0, 0, errInternal(err)
	}
	if stats.MaxLoad != maxLoad || stats.TotalComm != total {
		return 0, 0, errInternal(fmt.Errorf(
			"mpcd: admitted on max load %d / comm %d but the round recorded %d / %d",
			maxLoad, total, stats.MaxLoad, stats.TotalComm))
	}
	sess.cluster, sess.anchor = next, sq
	sess.budgetSpent += total
	return maxLoad, total, nil
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

// gather unions the fragments and evaluates centrally — the fallback
// for queries the single-round machinery does not cover. The model
// prices it honestly: every fact converges on one logical site, so the
// cost is |I| against both the per-query load budget and the session's
// communication budget, priced on the session's fact count before the
// union is built and checked against it. The distribution is left
// untouched.
func (sess *Session) gather(sq *sessionQuery, qBudget int) (*rel.Instance, int, *apiError) {
	cost := sess.facts
	if aerr := sess.admit(cost, cost, qBudget); aerr != nil {
		return nil, 0, aerr
	}
	union := sess.cluster.Output()
	if union.Len() != cost {
		return nil, 0, errInternal(fmt.Errorf("mpcd: gathered %d facts of a session holding %d", union.Len(), cost))
	}
	var out *rel.Instance
	if sq.prog != nil {
		res, err := datalog.EvalQuery(sq.prog, union, sq.outRel)
		if err != nil {
			return nil, 0, errBadRequest("datalog evaluation: %v", err)
		}
		out = res
	} else {
		out = cq.Output(sq.cq, union)
	}
	sess.budgetSpent += cost
	return out, cost, nil
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
