package mpcd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
)

// sessionImage is the session byte for byte: its snapshot manifest
// entry (ledger, anchor, counters, dict) and its fragment store image.
func sessionImage(t testing.TB, sess *Session) string {
	t.Helper()
	dir := t.TempDir()
	sm, err := sess.snapshot(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(sm)
	if err != nil {
		t.Fatal(err)
	}
	store, err := os.ReadFile(filepath.Join(dir, sm.Store))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s\n%x", meta, store)
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
			sess.cluster.Server(from).Remove(f)
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

// TestSessionHoldsOneRoundAndNoSlack: a session that has repartitioned
// 200 times, alternating two anchors, remembers one round, and its live
// heap is what it was after the second repartition — no history kept,
// and fragments that do not get looser from one generation to the next.
// A first session is run and dropped so that what the runtime itself
// keeps once it has run a round (goroutine descriptors, mostly) is in
// both readings.
func TestSessionHoldsOneRoundAndNoSlack(t *testing.T) {
	live := func() float64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
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
	alternate(joinSession(t, 500, 1<<40), 200, func(int) {})
	sess := joinSession(t, 20000, 1<<40)
	times := 200
	if testing.Short() {
		times = 40 // the race pass
	}
	var at2, atEnd float64
	alternate(sess, times, func(n int) {
		switch n {
		case 2:
			at2 = live()
		case times:
			atEnd = live()
		}
	})
	if atEnd > at2*1.02 || atEnd < at2*0.98 {
		t.Errorf("live heap %.0f bytes after %d repartitions, %.0f after 2", atEnd, times, at2)
	}
}

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
