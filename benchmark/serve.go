package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"mpclogic/internal/cq"
	"mpclogic/internal/mpcd"
	"mpclogic/internal/mpcd/loadgen"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// The three serve_* workloads on big sessions share one world: four
// sessions of the skew-free join generator behind one loopback server.
const (
	serveSessions = 2 * clients
	serveN        = 20000 // tuples per relation; 2n facts per session
	serveP        = 8
	// The default SessionBudget (1<<24) is gone after ~340
	// repartitions of 40 000 facts; the workloads must never be
	// refused for budget, so sessions declare their own.
	serveBudget = 1 << 40
)

const (
	workloadReuse       = "serve_reuse"
	workloadRepartition = "serve_repartition"
	workloadRestart     = "serve_restart"
)

// Query kinds. A is the anchor; B–E are covered by it (pc transfer),
// E is boolean; F is a self-join that neither covers A nor is covered
// by it, with empty output on this data, so its cost is pure movement.
var serveQueries = map[string]string{
	"A": "A(x, z) :- R(x, y), S(y, z)",
	"B": "B(x) :- R(x, y), S(y, z)",
	"C": "C(z, x) :- S(y, z), R(x, y)",
	"D": "D(x, y) :- R(x, y)",
	"E": "E() :- R(x, y), S(y, z)",
	"F": "F(x, z) :- R(x, y), R(y, z)",
}

// reuseScript is one cycle of serve_reuse before shuffling: 14 warm
// ops and 2 cold ones (1 in 8). A cold op is an alpha-renamed E whose
// text the server has never seen, so it misses the session's parse
// cache and the server's plan and cover caches.
var reuseScript = []string{
	"A", "A", "A", "B", "B", "B", "C", "C", "C", "D", "D", "D", "E", "E", "cold", "cold",
}

// reference is the expected reply to one query on one session: the
// body split around the two budget fields, which are the only bytes
// that change from op to op, plus the costs the body declares.
type reference struct {
	request    []byte
	head, tail []byte
	path       string
	comm       int
	maxLoad    int
}

var (
	budgetSpentKey     = []byte(`"budget_spent":`)
	budgetRemainingKey = []byte(`,"budget_remaining":`)
	countKey           = []byte(`,"count":`)
)

// newReference decodes a reply once, at set-up, and keeps what the
// per-op byte comparison needs.
func newReference(request, raw []byte) (*reference, *mpcd.QueryResponse, error) {
	var resp mpcd.QueryResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, nil, fmt.Errorf("undecodable reply %s", clip(raw))
	}
	i := bytes.Index(raw, budgetSpentKey)
	j := bytes.Index(raw, countKey)
	if i < 0 || j < i {
		return nil, nil, fmt.Errorf("reply has no budget fields: %s", clip(raw))
	}
	ref := &reference{
		request: request,
		head:    append([]byte(nil), raw[:i+len(budgetSpentKey)]...),
		tail:    append([]byte(nil), raw[j:]...),
		path:    resp.Path,
		comm:    resp.Comm,
		maxLoad: resp.MaxLoad,
	}
	return ref, &resp, nil
}

// matches compares a reply with the reference byte for byte, given the
// session's ledger after the op. It decodes nothing and allocates
// nothing: a 400 KB body costs two memcmp calls.
func (r *reference) matches(raw []byte, spent, total int) bool {
	var buf [80]byte
	mid := strconv.AppendInt(buf[:0], int64(spent), 10)
	mid = append(mid, budgetRemainingKey...)
	mid = strconv.AppendInt(mid, int64(total-spent), 10)
	if len(raw) != len(r.head)+len(mid)+len(r.tail) {
		return false
	}
	return bytes.Equal(raw[:len(r.head)], r.head) &&
		bytes.Equal(raw[len(r.head):len(r.head)+len(mid)], mid) &&
		bytes.Equal(raw[len(r.head)+len(mid):], r.tail)
}

type serveSession struct {
	id    string
	spent int // the session's budget ledger, mirrored client-side
	refs  map[string]*reference
	next  int // serve_repartition: control requests issued, for the alternation
}

type serveWorld struct {
	kind     string
	run      *runConfig
	cfg      mpcd.Config
	srv      *mpcd.Server
	front    *loopback
	api      loadgen.Client // set-up and traced passes
	own      []*loadgen.HTTPClient
	sessions []*serveSession
	scripts  [clients][]string
	snapDir  string
	cursor   int // next op of the traced prefix
}

func queryBody(session, query string) []byte {
	raw, err := json.Marshal(map[string]string{"session": session, "query": query})
	if err != nil {
		panic(err) // a map of strings always encodes
	}
	return raw
}

// oracle evaluates a query centrally on the whole instance and renders
// it the way mpcd renders answers.
func oracle(inst *rel.Instance, query string) ([]string, error) {
	d := rel.NewDict()
	q, err := cq.Parse(d, query)
	if err != nil {
		return nil, err
	}
	return renderFacts(cq.Output(q, inst), d), nil
}

// renderFacts renders an answer the way mpcd renders it: facts in
// sorted order, each spelled through the dictionary that parsed the
// query.
func renderFacts(out *rel.Instance, d *rel.Dict) []string {
	fs := out.SortedFacts()
	strs := make([]string, len(fs))
	for i, f := range fs {
		strs[i] = f.StringWith(d)
	}
	return strs
}

// buildServe sets one of the big-session workloads up: server,
// sessions, anchors, one warm-up op per query kind, and the reference
// replies — each checked against the central oracle before it is
// trusted for byte comparison. be is the traced run's backend, nil for
// an untraced run.
func buildServe(run *runConfig, kind string, be *backend) (*serveWorld, error) {
	w := &serveWorld{kind: kind, run: run, snapDir: filepath.Join(run.scratch, "snapshot")}
	w.srv = mpcd.New(mpcd.Config{})
	w.cfg = w.srv.Config()
	w.front = newLoopback(w.srv.Handler())
	c := w.newClient()
	if be != nil {
		be.http = c
		w.api = be
	} else {
		w.api = c
	}

	inst := workload.JoinSkewFree(serveN)
	want := map[string][]string{}
	for kind, text := range serveQueries {
		answers, err := oracle(inst, text)
		if err != nil {
			return nil, fmt.Errorf("oracle for %s: %w", kind, err)
		}
		want[kind] = answers
	}

	kinds := []string{"A", "B", "C", "D", "E"}
	wantPath := mpcd.PathReused
	if kind == workloadRepartition {
		kinds, wantPath = []string{"A", "F"}, mpcd.PathRepartitioned
	}
	rng := rand.New(rand.NewSource(run.seed))
	for k := 0; k < serveSessions; k++ {
		sess := &serveSession{id: fmt.Sprintf("bench%d", k), refs: map[string]*reference{}}
		create, err := json.Marshal(map[string]any{
			"id": sess.id, "generator": "join", "n": serveN, "p": serveP, "budget": serveBudget,
		})
		if err != nil {
			return nil, err
		}
		status, raw, err := w.api.Do("POST", "/v1/sessions", create)
		if err != nil || status != 200 {
			return nil, fmt.Errorf("creating %s: %d %s %v", sess.id, status, clip(raw), err)
		}
		if kind != workloadRepartition {
			// The anchor: the one repartition of the session's life.
			if err := w.learn(sess, "A", mpcd.PathRepartitioned, want["A"]); err != nil {
				return nil, err
			}
		}
		for _, q := range kinds {
			if err := w.learn(sess, q, wantPath, want[q]); err != nil {
				return nil, err
			}
		}
		w.sessions = append(w.sessions, sess)
	}
	for c := range w.scripts {
		script := append([]string(nil), reuseScript...)
		rng.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })
		w.scripts[c] = script
	}
	return w, nil
}

func (w *serveWorld) newClient() *loadgen.HTTPClient {
	c := w.front.newClient(1)
	w.own = append(w.own, c)
	return c
}

// learn issues one query kind during set-up, checks path and answer
// against the oracle, and keeps the reply as the kind's reference.
func (w *serveWorld) learn(sess *serveSession, kind, wantPath string, want []string) error {
	request := queryBody(sess.id, serveQueries[kind])
	status, raw, err := w.api.Do("POST", "/v1/query", request)
	if err != nil || status != 200 {
		return fmt.Errorf("%s on %s: %d %s %v", kind, sess.id, status, clip(raw), err)
	}
	ref, resp, err := newReference(request, raw)
	if err != nil {
		return err
	}
	if resp.Path != wantPath {
		return fmt.Errorf("%s on %s took path %q, predicted %q", kind, sess.id, resp.Path, wantPath)
	}
	if !slices.Equal(resp.Output, want) || resp.Count != len(want) {
		return fmt.Errorf("%s on %s: %d answers, the central oracle has %d (or they differ)", kind, sess.id, resp.Count, len(want))
	}
	sess.spent = resp.BudgetSpent
	sess.refs[kind] = ref
	return nil
}

// issue sends one query and verifies the whole reply.
func (w *serveWorld) issue(api loadgen.Client, sess *serveSession, ref *reference) error {
	status, raw, err := api.Do("POST", "/v1/query", ref.request)
	if err != nil {
		return err
	}
	if w.run.mangle != nil {
		raw = w.run.mangle(raw)
	}
	if status != 200 {
		return fmt.Errorf("%s: status %d %s", sess.id, status, clip(raw))
	}
	// The server executed the query, so the ledger moved whether or
	// not the reply checks out: one wrong reply must not fail the
	// session's later ones too.
	sess.spent += ref.comm
	if !ref.matches(raw, sess.spent, serveBudget) {
		return fmt.Errorf("%s: reply differs from the verified reference (want path %s, comm %d): %s",
			sess.id, ref.path, ref.comm, clip(raw))
	}
	return nil
}

// coldReference builds the expected reply to a never-seen alpha
// variant of E without asking the server: same answer, new text.
func (w *serveWorld) coldReference(sess *serveSession, client, i int) (*reference, error) {
	tag := fmt.Sprintf("%x_%d_%d", uint64(w.run.seed)&0xffff, client, i)
	text := fmt.Sprintf("E() :- R(x%s, y%s), S(y%s, z%s)", tag, tag, tag, tag)
	body, err := json.Marshal(&mpcd.QueryResponse{
		Session: sess.id, Query: text, Path: mpcd.PathReused, Count: 1, Output: []string{"E()"},
	})
	if err != nil {
		return nil, err
	}
	ref, _, err := newReference(queryBody(sess.id, text), append(body, '\n'))
	return ref, err
}

// nextOp returns client's i-th op, ready to run, and the reference its
// reply will be held to. Everything that is the client's own work —
// choosing, building expected bytes — happens here, before the timed
// section.
func (w *serveWorld) nextOp(api loadgen.Client, client, i int) (func() error, *reference) {
	switch w.kind {
	case workloadRepartition:
		// One op is a whole alternation, A then F, on one session: the
		// two anchors cost differently, and a latency distribution
		// with two modes has a median that jumps between them.
		// The seed picks which of its two sessions a client starts on.
		sess := w.sessions[client*2+(i+int(uint64(w.run.seed)%2))%2]
		a, f := sess.refs["A"], sess.refs["F"]
		both := &reference{comm: a.comm + f.comm, maxLoad: max(a.maxLoad, f.maxLoad)}
		return func() error {
			// F follows even a failed A, or the next op's A would find
			// itself the anchor and be served reused.
			errA := w.issue(api, sess, a)
			if err := w.issue(api, sess, f); err != nil {
				return err
			}
			return errA
		}, both
	case workloadRestart:
		sess := w.sessions[i%len(w.sessions)]
		ref := sess.refs["A"]
		return func() error {
			srv, err := restartCycle(w.srv, w.snapDir, w.cfg, nil)
			if err != nil {
				return err
			}
			w.srv = srv
			w.front.swap(srv.Handler())
			return w.issue(api, sess, ref)
		}, ref
	}
	script := w.scripts[client]
	sess := w.sessions[client*2+(i/len(script))%2]
	kind := script[i%len(script)]
	ref := sess.refs[kind]
	if kind == "cold" {
		var err error
		if ref, err = w.coldReference(sess, client, i); err != nil {
			return func() error { return err }, nil
		}
	}
	return func() error { return w.issue(api, sess, ref) }, ref
}

func (w *serveWorld) measure(rec *recorder, window time.Duration) {
	n := clients
	if w.kind == workloadRestart {
		n = 1 // a restart is a whole-server op
	}
	apis := make([]loadgen.Client, n)
	for c := range apis {
		apis[c] = w.newClient()
	}
	closedLoop(rec, n, window, func(client, i int) func() error {
		op, _ := w.nextOp(apis[client], client, i)
		return op
	})
}

func (w *serveWorld) close() {
	for _, c := range w.own {
		closeClient(c)
	}
	w.front.close()
}

// passResult is what one pass over the fixed op prefix observed.
type passResult struct {
	lats     []float64 // ms, per op, as the one client saw them
	ops      int
	comm     int
	maxLoad  int
	rejected int
	failed   int
	err      error // first failure
}

func (p *passResult) book(lat time.Duration, err error) {
	p.ops++
	if err != nil {
		p.failed++
		if p.err == nil {
			p.err = err
		}
		return
	}
	p.lats = append(p.lats, ms(lat))
}

// pass runs the next n ops of client 0's sequence with one client
// through the world's api — the loopback server alone before the twins
// are attached, all three flavours after.
func (w *serveWorld) pass(be *backend, n int) passResult {
	var res passResult
	for k := 0; k < n; k++ {
		i := w.cursor
		w.cursor++
		if w.kind == workloadRestart && be.handler != nil {
			res.book(w.tracedRestart(be, i))
			continue
		}
		op, ref := w.nextOp(w.api, 0, i)
		start := time.Now()
		err := op()
		res.book(time.Since(start), err)
		if err == nil {
			// The reply matched the reference byte for byte, so the
			// costs it declared are the reference's.
			res.comm += ref.comm
			res.maxLoad += ref.maxLoad
		}
	}
	return res
}

// tracedRestart is one serve_restart op on the twin server, with the
// shadow doing what a restart does to each session's image through the
// policy and mpc layers.
func (w *serveWorld) tracedRestart(be *backend, i int) (time.Duration, error) {
	tr := be.tr
	sess := w.sessions[i%len(w.sessions)]
	ref := sess.refs["A"]
	var err error
	tr.beginOp()
	took := tr.span(opSpan, func() {
		var next *mpcd.Server
		tr.span("mpcd.restart", func() { next, err = restartCycle(be.twin, w.snapDir, w.cfg, tr) })
		if err != nil {
			return
		}
		be.setTwin(next)
		var status int
		var raw []byte
		tr.span("mpcd.handler", func() { status, raw, _ = be.handler.Do("POST", "/v1/query", ref.request) })
		var rep shadowReply
		tr.span(shadowSpan, func() {
			if err = be.sh.restart(); err == nil {
				rep, err = be.sh.do("POST", "/v1/query", ref.request)
			}
		})
		switch {
		case err != nil:
		case status != 200 || !ref.matches(raw, sess.spent, serveBudget):
			err = fmt.Errorf("first reply after restart differs from the reference: %d %s", status, clip(raw))
		default:
			err = checkShadow(rep, status, raw)
		}
	})
	tr.endOp()
	return took, err
}

func (w *serveWorld) loopbackServer() *mpcd.Server { return w.srv }

func (w *serveWorld) betweenPasses() error { return nil }

func (w *serveWorld) residentFacts() int { return len(w.sessions) * 2 * serveN }

// control asks the loopback server, which is never restarted in a
// traced run, for session 0's next reply: what a restored twin must
// reproduce byte for byte.
func (w *serveWorld) control() (request, want []byte, err error) {
	sess := w.sessions[0]
	ref := sess.refs["A"]
	if w.kind == workloadRepartition {
		ref = sess.refs[[]string{"A", "F"}[sess.next%2]]
		sess.next++
	}
	status, raw, err := w.own[0].Do("POST", "/v1/query", ref.request)
	if err != nil {
		return nil, nil, err
	}
	sess.spent += ref.comm
	if status != 200 || !ref.matches(raw, sess.spent, serveBudget) {
		return nil, nil, fmt.Errorf("%s: control reply differs from the reference: %d %s", sess.id, status, clip(raw))
	}
	return ref.request, raw, nil
}
