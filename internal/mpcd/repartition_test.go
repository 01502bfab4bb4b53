package mpcd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
	sm, err := sess.snapshot(dir)
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
		grid, aerr := sq.plan.gridFor(sq.cq, sess.p, sess.seed)
		if aerr != nil {
			t.Fatal(aerr)
		}
		var counter atomic.Int64
		maxLoad, total, aerr = sess.reship(sq, countingRouter(sess.gridRouter(grid), &counter), qBudget)
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
		g8, _ := sq.plan.gridFor(sq.cq, 8, s.cfg.Seed)
		g4, _ := sq.plan.gridFor(sq.cq, 4, s.cfg.Seed)
		if g8 == nil || g4 == nil || g8.P() > 8 || g4.P() > 4 || g8 == g4 {
			t.Errorf("%s: grids per width: %v, %v", q, g8, g4)
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
