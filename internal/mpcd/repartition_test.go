package mpcd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mpclogic/internal/cq"
	"mpclogic/internal/datalog"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
)

// sessionImage is the session byte for byte: its snapshot record,
// whose meta holds the ledger, anchor, counters and dict beside the
// fragments.
func sessionImage(t testing.TB, sess *Session) string {
	t.Helper()
	rec, err := sess.record()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", rec)
}

// joinSession creates a session of the skew-free join generator and
// returns it with its server.
func joinSession(t testing.TB, n, budget int) *Session {
	t.Helper()
	s := New(Config{})
	resp, aerr := s.createSession(&createRequest{ID: "j", Generator: "join", N: n, Budget: budget})
	if aerr != nil {
		t.Fatal(aerr)
	}
	return s.sessions[resp.Session]
}

// countingRouter counts Route calls; the communication phase calls it
// from several goroutines.
func countingRouter(r mpc.Router, calls *atomic.Int64) mpc.Router {
	return mpc.RouterFunc(func(f rel.Fact) []int {
		calls.Add(1)
		return r.Route(f)
	})
}

// TestRepartitionRoutesEachFactOnce pins the single pass: an admitted
// repartition asks the router about each of the session's facts exactly
// once — the admission loads and the shipment are one computation — and
// so does a rejected one, of either kind, which then leaves the session
// byte for byte as it was.
func TestRepartitionRoutesEachFactOnce(t *testing.T) {
	const n = 200
	sess := joinSession(t, n, 0)
	facts := int64(sess.facts)
	reship := func(q string, qBudget int) (calls int64, maxLoad, total int, aerr *apiError) {
		t.Helper()
		sq, aerr := sess.parseQuery(LangCQ, q, "")
		if aerr != nil {
			t.Fatal(aerr)
		}
		place, aerr := sq.plan.placementFor(sq.cq, sess.p, sess.seed)
		if aerr != nil {
			t.Fatal(aerr)
		}
		var counter atomic.Int64
		maxLoad, total, aerr = sess.reship(sq, countingRouter(place, &counter), qBudget)
		return counter.Load(), maxLoad, total, aerr
	}

	calls, maxLoad, total, aerr := reship(anchorQ, 1<<30)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if calls != facts {
		t.Errorf("admitted repartition routed %d facts of %d", calls, facts)
	}
	if st := sess.cluster.LastStats(); st.MaxLoad != maxLoad || st.TotalComm != total || sess.budgetSpent != total {
		t.Errorf("admitted on %d/%d, recorded %d/%d, charged %d", maxLoad, total, st.MaxLoad, st.TotalComm, sess.budgetSpent)
	}

	before := sessionImage(t, sess)
	calls, _, _, aerr = reship(uncoveredQ, maxLoad/4)
	if aerr == nil || aerr.Code != CodeBudgetExceeded {
		t.Fatalf("want a query-budget rejection, got %v", aerr)
	}
	if calls != facts {
		t.Errorf("query-budget rejection routed %d facts of %d", calls, facts)
	}
	if after := sessionImage(t, sess); after != before {
		t.Errorf("query-budget rejection changed the session")
	}

	sess.budgetTotal = sess.budgetSpent + total/2
	before = sessionImage(t, sess)
	calls, _, _, aerr = reship(uncoveredQ, 1<<30)
	if aerr == nil || aerr.Code != CodeSessionBudget {
		t.Fatalf("want a session-budget rejection, got %v", aerr)
	}
	if calls != facts {
		t.Errorf("session-budget rejection routed %d facts of %d", calls, facts)
	}
	if after := sessionImage(t, sess); after != before {
		t.Errorf("session-budget rejection changed the session")
	}
	if sz := sess.srv.Statz(); sz.RejectedBudget != 1 || sz.RejectedSessionBudget != 1 {
		t.Errorf("statz after one rejection of each kind: %+v", sz)
	}
}

// reshipReference is the repartition this package ran before fragments
// were routed where they lie, kept as the oracle: union the session's
// fragments, deal the distinct facts round-robin into a fresh cluster,
// and run the query's round there with no Owner — the grid with its
// parking fallback spelled out again, not through placement. It reads
// the session and changes nothing of it.
func reshipReference(t testing.TB, sess *Session, sq *sessionQuery) (*mpc.Cluster, mpc.RoundStats) {
	t.Helper()
	place, aerr := sq.plan.placementFor(sq.cq, sess.p, sess.seed)
	if aerr != nil {
		t.Fatal(aerr)
	}
	grid, p, seed := place.grid, uint64(sess.p), sess.seed
	fresh := mpc.NewCluster(sess.p)
	fresh.LoadRoundRobin(sess.cluster.Output())
	stats, err := fresh.RunRound(mpc.Round{Name: "repartition " + sq.text, Route: mpc.RouterFunc(func(f rel.Fact) []int {
		if ts := grid.Targets(f); len(ts) > 0 {
			return ts
		}
		return []int{int(rel.Mix64(f.Hash()^seed^parkSalt) % p)}
	})})
	if err != nil {
		t.Fatal(err)
	}
	return fresh, stats
}

// stepAgainstReference runs one query and, if it repartitioned, holds
// the step to reshipReference run on the session as it stood: the
// reply's max_load and comm, the per-server Received, the ledger, and
// every server's fragment as a set. The reply's bytes are held to the
// reference through checkReply — json.Marshal of those header fields
// over a central evaluation of the union. A session keeps one round of
// history.
func stepAgainstReference(t *testing.T, sess *Session, q string) *reply {
	t.Helper()
	sq, aerr := sess.parseQuery(LangCQ, q, "")
	if aerr != nil {
		t.Fatal(aerr)
	}
	ref, want := reshipReference(t, sess, sq)
	spent := sess.budgetSpent
	resp := checkReply(t, sess, &queryRequest{Session: sess.ID, Query: q}, "")
	if resp.Path != PathRepartitioned {
		if resp.Comm != 0 || sess.budgetSpent != spent {
			t.Fatalf("%s was %s at comm %d", q, resp.Path, resp.Comm)
		}
		return resp
	}
	got := sess.cluster.LastStats()
	if resp.MaxLoad != want.MaxLoad || resp.Comm != want.TotalComm || !reflect.DeepEqual(got.Received, want.Received) {
		t.Fatalf("%s: replied max load %d, comm %d on %v; the reference ships %d, %d on %v",
			q, resp.MaxLoad, resp.Comm, got.Received, want.MaxLoad, want.TotalComm, want.Received)
	}
	if sess.budgetSpent != spent+want.TotalComm || resp.BudgetSpent != sess.budgetSpent {
		t.Fatalf("%s: ledger %d → %d (reply says %d) for a shipment of %d", q, spent, sess.budgetSpent, resp.BudgetSpent, want.TotalComm)
	}
	for i := 0; i < sess.p; i++ {
		if !sess.cluster.Server(i).Equal(ref.Server(i)) {
			t.Fatalf("%s: server %d holds %v, the reference %v", q, i, sess.cluster.Server(i), ref.Server(i))
		}
	}
	if n := len(sess.cluster.Stats()); n != 1 {
		t.Fatalf("%s: the session's cluster remembers %d rounds", q, n)
	}
	return resp
}

// TestRepartitionMatchesReference walks TestTransferLawAtServingSeam's
// 72-query script, with reuse and without, holding every repartition to
// the pipeline it replaced.
func TestRepartitionMatchesReference(t *testing.T) {
	for _, disable := range []bool{false, true} {
		s := New(Config{DisableReuse: disable})
		resp, aerr := s.createSession(&lawCreate)
		if aerr != nil {
			t.Fatal(aerr)
		}
		sess := s.sessions[resp.Session]
		r := rand.New(rand.NewSource(41))
		repartitioned := 0
		for n := 0; n < 72; n++ {
			if stepAgainstReference(t, sess, lawQueries[r.Intn(len(lawQueries))]).Path == PathRepartitioned {
				repartitioned++
			}
		}
		if repartitioned < 10 || disable && repartitioned != 72 {
			t.Fatalf("reuse disabled %v: %d of 72 queries repartitioned", disable, repartitioned)
		}
	}
}

// walkAnchors are queries none of which the walk lets ride another's
// fragments (reuse is off): self-joins, one a triangle that replicates
// along two dimensions, constants, a repeated variable, an atom over a
// relation the data lacks, a Boolean head.
var walkAnchors = []string{
	anchorQ,
	uncoveredQ,
	"T(x, y, z) :- R(x, y), S(y, z), R(z, x)",
	"C(x, y, z) :- S(x, y), S(y, z), S(z, x)",
	"K(z) :- R('a', y), S(y, z)",
	"G(x) :- R(x, 16777217)",
	"L(x) :- R(x, x)",
	"M(x, y) :- R(x, y), Q(y, x)",
	"E() :- R(x, y), S(y, z)",
}

// TestRepartitionWalkMatchesReference is a 60-step seeded random walk
// over walkAnchors at p = 1, 3 and 8, on data with relations no anchor
// mentions (parked by every placement), every step held to the
// reference. Midway the server is snapshotted and restored — from the
// fragments as the pipeline this one replaced would have left them, in
// its enumeration order, which is what a snapshot written before the
// change holds — and the walk goes on from the restored session.
func TestRepartitionWalkMatchesReference(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		s := New(Config{DisableReuse: true})
		resp, aerr := s.createSession(&createRequest{
			ID: "walk", Generator: "join", N: 64, P: p, Budget: 1 << 40,
			Facts: []string{
				"R(a, a)", "R(a, b)", "R(b, c)", "R(c, a)", "S(b, b)", "S(c, a)", "S(a, c)",
				"Z(q, r)", "Z(r, s)", "W(a)", "W(b)",
			},
		})
		if aerr != nil {
			t.Fatal(aerr)
		}
		sess := s.sessions[resp.Session]
		r := rand.New(rand.NewSource(int64(100 + p)))
		seen := map[string]bool{}
		for n := 0; n < 60; n++ {
			if n == 30 {
				sq := sess.anchor
				ref, _ := reshipReference(t, sess, sq)
				sess.cluster = ref
				dir := t.TempDir()
				if err := s.SaveSnapshot(dir); err != nil {
					t.Fatal(err)
				}
				restored, err := LoadSnapshot(dir, Config{DisableReuse: true})
				if err != nil {
					t.Fatal(err)
				}
				s, sess = restored, restored.sessions["walk"]
				if sess.anchor == nil || sess.anchor.text != sq.text {
					t.Fatalf("restored anchor %+v, want %s", sess.anchor, sq.text)
				}
			}
			q := walkAnchors[r.Intn(len(walkAnchors))]
			seen[q] = true
			if stepAgainstReference(t, sess, q).Path != PathRepartitioned {
				t.Fatalf("p=%d step %d: %s did not repartition", p, n, q)
			}
		}
		if len(seen) < 6 {
			t.Fatalf("p=%d: the walk met %d anchors", p, len(seen))
		}
	}
}

// TestFragmentsNotTheAnchorsImageAreRefused: a session whose fragments
// are not the image of its anchor's placement would have a repartition
// ship a fact never — an R fact moved off the server that owns it — or
// twice — an S fact, which the self-join parks on one server and which
// is therefore owned wherever it sits, copied to a second. The
// routed-fact count sees both before anything ships: a typed internal
// error, the session untouched.
func TestFragmentsNotTheAnchorsImageAreRefused(t *testing.T) {
	for _, damage := range []struct {
		rel  string
		move bool
	}{{"R", true}, {"S", false}} {
		sess := joinSession(t, 50, 0)
		if _, aerr := sess.run(&queryRequest{Session: sess.ID, Query: uncoveredQ}); aerr != nil {
			t.Fatal(aerr)
		}
		// A fact of the relation held by one server only.
		var f rel.Fact
		from := -1
		sess.cluster.Output().Each(func(g rel.Fact) bool {
			holders := 0
			for i := 0; i < sess.p; i++ {
				if sess.cluster.Server(i).Contains(g) {
					holders, from = holders+1, i
				}
			}
			if g.Rel == damage.rel && holders == 1 {
				f = g
				return false
			}
			return true
		})
		if f.Rel != damage.rel {
			t.Fatalf("no %s fact is held once", damage.rel)
		}
		if damage.move {
			srv := sess.cluster.Server(from)
			srv.SetRelationAs(f.Rel, rel.Select(srv.Relation(f.Rel), func(t rel.Tuple) bool { return !t.Equal(f.Tuple) }))
		}
		sess.cluster.Server((from + 1) % sess.p).Add(f)
		before := sessionImage(t, sess)
		_, aerr := sess.run(&queryRequest{Session: sess.ID, Query: anchorQ})
		if aerr == nil || aerr.Code != CodeInternal {
			t.Fatalf("%+v: want an internal error, got %v", damage, aerr)
		}
		if after := sessionImage(t, sess); after != before {
			t.Errorf("%+v: the refused repartition changed the session", damage)
		}
	}
}

// TestGatherChecksTheUnion: a gather is priced on the session's fact
// count before the union is built, and the union is checked against
// that count, so fragments that lost a fact are a typed internal error,
// the session untouched.
func TestGatherChecksTheUnion(t *testing.T) {
	sess := joinSession(t, 50, 0)
	srv, dropped := sess.cluster.Server(0), false
	srv.SetRelationAs("R", rel.Select(srv.Relation("R"), func(rel.Tuple) bool {
		keep := dropped
		dropped = true
		return keep
	}))
	before := sessionImage(t, sess)
	_, aerr := sess.run(&queryRequest{Session: sess.ID, Query: "N(x, z) :- R(x, y), S(y, z), not R(z, x)"})
	if aerr == nil || aerr.Code != CodeInternal {
		t.Fatalf("a gather over fragments short of a fact: want an internal error, got %v", aerr)
	}
	if after := sessionImage(t, sess); after != before {
		t.Error("the refused gather changed the session")
	}
}

// TestGatherBehindReplicatingAnchor: on fragments the self-join anchor
// has replicated — R facts on several servers — a gather round ships
// each fact once, from its owner. A CQ¬ and a Datalog program answer
// what central evaluation of the created instance answers; each reply
// reports max load = comm = the session's fact count, the price it was
// admitted on; and the session keeps its cluster and anchor.
func TestGatherBehindReplicatingAnchor(t *testing.T) {
	sess := joinSession(t, 200, 1<<40)
	input := sess.cluster.Output()
	if resp, aerr := sess.run(&queryRequest{Session: sess.ID, Query: uncoveredQ}); aerr != nil || resp.Path != PathRepartitioned {
		t.Fatalf("anchoring the self-join: %+v %v", resp, aerr)
	}
	held := 0
	for _, frag := range fragments(sess.cluster) {
		held += frag.Len()
	}
	if held <= sess.facts {
		t.Fatalf("the anchor's fragments hold %d copies of %d facts: nothing is replicated", held, sess.facts)
	}
	cluster, anchor := sess.cluster, sess.anchor
	for _, req := range []queryRequest{
		{Query: "N(x, z) :- R(x, y), S(y, z), not R(z, x)"},
		{Lang: LangDatalog, Out: "T", Query: "T(x, y) :- R(x, y)\nT(x, z) :- T(x, y), S(y, z)"},
	} {
		req.Session = sess.ID
		resp, aerr := sess.run(&req)
		if aerr != nil || resp.Path != PathGathered {
			t.Fatalf("%q: %+v %v", req.Query, resp, aerr)
		}
		if resp.MaxLoad != sess.facts || resp.Comm != sess.facts {
			t.Errorf("%q: max load %d, comm %d; the session holds %d facts", req.Query, resp.MaxLoad, resp.Comm, sess.facts)
		}
		sq, aerr := sess.parseQuery(req.Lang, req.Query, req.Out)
		if aerr != nil {
			t.Fatal(aerr)
		}
		var want *rel.Instance
		var err error
		if sq.prog != nil {
			want, err = datalog.EvalQuery(sq.prog, input, sq.outRel)
		} else {
			want = cq.Output(sq.cq, input)
		}
		if err != nil {
			t.Fatal(err)
		}
		var got QueryResponse
		if err := json.Unmarshal(resp.body, &got); err != nil {
			t.Fatal(err)
		}
		wantOut := make([]string, 0, want.Len())
		for _, f := range want.SortedFacts() {
			wantOut = append(wantOut, f.StringWith(sess.dict))
		}
		if want.Len() == 0 || !reflect.DeepEqual(got.Output, wantOut) {
			t.Errorf("%q: gathered %d facts, central evaluation %d", req.Query, len(got.Output), want.Len())
		}
		if sess.cluster != cluster || sess.anchor != anchor {
			t.Errorf("%q: the gather replaced the session's cluster or anchor", req.Query)
		}
	}
}

// TestSessionHoldsOneRoundAndNoSlack: a session that has repartitioned
// 200 times, alternating two anchors, remembers one round, and its live
// heap is what it was after the second repartition — no history kept,
// and fragments that do not get looser from one generation to the next.
// Both readings are taken in a child process that runs this test alone
// (the test binary re-run with -test.run pinned to it, behind
// heapChildEnv), so that no memory an earlier test is still freeing
// lands in one reading only; the parent reports the child's readings.
// In the child a first session of the measured one's size is run and
// dropped so that what the runtime itself keeps once it has run a round
// is in both readings: goroutine descriptors, mostly, which the runtime
// never frees and which count in HeapAlloc (≈ 460 bytes each). A
// smaller session's phases run inline and start no goroutine, so it
// would leave the fan-out's descriptors to grow between the readings.
// A reading waits until the goroutines a round started have exited,
// then takes the least of three heaps, each after a collection.
func TestSessionHoldsOneRoundAndNoSlack(t *testing.T) {
	if os.Getenv(heapChildEnv) == "" {
		args := []string{"-test.run=^TestSessionHoldsOneRoundAndNoSlack$", "-test.count=1"}
		if testing.Short() {
			args = append(args, "-test.short")
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), heapChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("the test alone in a child process: %v\n%s", err, out)
		}
		t.Logf("the test alone in a child process: %s", bytes.TrimSpace(out))
		return
	}
	var goroutines int
	live := func() float64 {
		for wait := 0; runtime.NumGoroutine() > goroutines && wait < 1000; wait++ {
			time.Sleep(time.Millisecond)
		}
		least := math.Inf(1)
		for range 3 {
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			least = min(least, float64(m.HeapAlloc))
		}
		return least
	}
	alternate := func(sess *Session, times int, at func(n int)) {
		for n := 1; n <= times; n++ {
			q := []string{anchorQ, uncoveredQ}[n%2]
			if resp, aerr := sess.run(&queryRequest{Session: sess.ID, Query: q}); aerr != nil || resp.Path != PathRepartitioned {
				t.Fatalf("repartition %d: %+v %v", n, resp, aerr)
			}
			if rounds := len(sess.cluster.Stats()); rounds > 1 {
				t.Fatalf("after %d repartitions the session's cluster remembers %d rounds", n, rounds)
			}
			at(n)
		}
	}
	times := 200
	if testing.Short() {
		times = 40 // the race pass
	}
	alternate(joinSession(t, 20000, 1<<40), times, func(int) {})
	goroutines = runtime.NumGoroutine()
	sess := joinSession(t, 20000, 1<<40)
	var at2, atEnd float64
	alternate(sess, times, func(n int) {
		switch n {
		case 2:
			at2 = live()
		case times:
			atEnd = live()
		}
	})
	readings := fmt.Sprintf("live heap %.0f bytes after %d repartitions, %.0f after 2", atEnd, times, at2)
	fmt.Println(readings)
	if atEnd > at2*1.02 || atEnd < at2*0.98 {
		t.Error(readings)
	}
}

// heapChildEnv marks the child process TestSessionHoldsOneRoundAndNoSlack
// takes its heap readings in.
const heapChildEnv = "MPCD_HEAP_READING_CHILD"

// TestRepartitionCompilesGridOncePerWidth: anchors that alternate, in
// one session or across sessions, route through the grid compiled on
// the query's first repartition at that width; another width gets its
// own.
func TestRepartitionCompilesGridOncePerWidth(t *testing.T) {
	s := New(Config{})
	var sessions []*Session
	for i, p := range []int{8, 8, 4} {
		resp, aerr := s.createSession(&createRequest{ID: fmt.Sprintf("w%d", i), Generator: "join", N: 50, P: p})
		if aerr != nil {
			t.Fatal(aerr)
		}
		sessions = append(sessions, s.sessions[resp.Session])
	}
	for i := 0; i < 4; i++ {
		for _, sess := range sessions {
			q := []string{anchorQ, uncoveredQ}[i%2]
			resp, aerr := sess.run(&queryRequest{Session: sess.ID, Query: q})
			if aerr != nil || resp.Path != PathRepartitioned {
				t.Fatalf("%s on %s: %+v %v", q, sess.ID, resp, aerr)
			}
		}
	}
	for _, q := range []string{anchorQ, uncoveredQ} {
		sq, aerr := sessions[0].parseQuery(LangCQ, q, "")
		if aerr != nil {
			t.Fatal(aerr)
		}
		if n := len(sq.plan.grids); n != 2 {
			t.Errorf("%s: %d grids compiled for widths 8 and 4, want 2", q, n)
		}
		p8, _ := sq.plan.placementFor(sq.cq, 8, s.cfg.Seed)
		p4, _ := sq.plan.placementFor(sq.cq, 4, s.cfg.Seed)
		if p8 == nil || p4 == nil || p8.grid.P() > 8 || p4.grid.P() > 4 || p8.grid == p4.grid {
			t.Errorf("%s: grids per width: %v, %v", q, p8, p4)
		}
	}
}

// BenchmarkRepartition is one admission-controlled repartition of a
// 40 000-fact session on 8 servers, alternating two anchors neither of
// which covers the other — serve_repartition's op without evaluation
// and rendering.
func BenchmarkRepartition(b *testing.B) {
	sess := joinSession(b, 20000, 1<<40)
	var sqs [2]*sessionQuery
	for i, q := range []string{anchorQ, uncoveredQ} {
		sq, aerr := sess.parseQuery(LangCQ, q, "")
		if aerr != nil {
			b.Fatal(aerr)
		}
		sqs[i] = sq
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, aerr := sess.repartition(sqs[i%2], 1<<30); aerr != nil {
			b.Fatal(aerr)
		}
	}
}

// BenchmarkRepartitionOp is serve_repartition's op with no socket: A
// then F through Handler() on a 40 000-fact session on 8 servers —
// decode, the cached parse, the repartition, evaluation on the new
// fragments, the encoded reply — twice, once per anchor.
func BenchmarkRepartitionOp(b *testing.B) {
	sess := joinSession(b, 20000, 1<<40)
	h := sess.srv.Handler()
	var bodies [2][]byte
	for i, q := range []string{anchorQ, uncoveredQ} {
		body, err := json.Marshal(queryRequest{Session: sess.ID, Query: q})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
			if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"path":"repartitioned"`)) {
				b.Fatalf("%d %.200s", rec.Code, rec.Body)
			}
		}
	}
}
