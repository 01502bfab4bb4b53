package mpcd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"testing"
)

// TestAdmittedLoadWithinBudget is the admission-control property: over
// randomized instances and budgets, every admitted repartition reports
// a measured MaxLoad within the declared budget, and every rejection is
// typed with the required load it refused to ship.
func TestAdmittedLoadWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	_, ts := newTestServer(t, Config{})
	for trial := 0; trial < 20; trial++ {
		id := fmt.Sprintf("adm%d", trial)
		n := 16 + rng.Intn(256)
		status, raw := do(t, "POST", ts.URL+"/v1/sessions", createRequest{
			ID: id, Generator: "random-graph", N: 32, M: n, Seed: int64(trial),
		})
		if status != http.StatusOK {
			t.Fatalf("create: %d %s", status, raw)
		}
		budget := 1 + rng.Intn(2*n)
		status, raw = do(t, "POST", ts.URL+"/v1/query", queryRequest{
			Session: id,
			Query:   "P(x, z) :- E(x, y), E(y, z)",
			Budget:  budget,
		})
		switch status {
		case http.StatusOK:
			var qr QueryResponse
			if err := json.Unmarshal(raw, &qr); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if qr.MaxLoad > budget {
				t.Fatalf("trial %d: admitted max load %d > budget %d", trial, qr.MaxLoad, budget)
			}
		case http.StatusTooManyRequests:
			var e apiError
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("decode rejection: %v", err)
			}
			if e.Code != CodeBudgetExceeded {
				t.Fatalf("trial %d: rejection code %q", trial, e.Code)
			}
			if e.Required <= budget {
				t.Fatalf("trial %d: rejected with required %d ≤ budget %d", trial, e.Required, budget)
			}
		default:
			t.Fatalf("trial %d: unexpected status %d: %s", trial, status, raw)
		}
	}
}

// TestRejectionLeavesSessionUntouched pins that a budget rejection has
// no side effects: the session answers the retried query (with a budget
// that admits it) exactly as if the rejection never happened.
func TestRejectionLeavesSessionUntouched(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "rb", Facts: transferFacts()})

	_, before := do(t, "GET", ts.URL+"/v1/sessions/rb", nil)
	status, raw := do(t, "POST", ts.URL+"/v1/query", queryRequest{
		Session: "rb", Query: anchorQ, Budget: 1, // the join co-locates pairs: load ≥ 2 somewhere
	})
	if status != http.StatusTooManyRequests || errCode(t, raw) != CodeBudgetExceeded {
		t.Fatalf("want budget rejection, got %d %s", status, raw)
	}
	_, after := do(t, "GET", ts.URL+"/v1/sessions/rb", nil)
	if string(before) != string(after) {
		t.Fatalf("rejection mutated the session:\n  before %s\n  after  %s", before, after)
	}

	// A fresh server that never saw the rejection answers identically.
	_, ts2 := newTestServer(t, Config{})
	do(t, "POST", ts2.URL+"/v1/sessions", createRequest{ID: "rb", Facts: transferFacts()})
	got := query(t, ts.URL, "rb", anchorQ)
	ref := query(t, ts2.URL, "rb", anchorQ)
	gotRaw, _ := json.Marshal(got)
	refRaw, _ := json.Marshal(ref)
	if string(gotRaw) != string(refRaw) {
		t.Fatalf("post-rejection response diverged:\n  got %s\n  ref %s", gotRaw, refRaw)
	}
}

// TestSessionBudgetExhaustion drains a session's communication budget
// and checks the ledger math on the typed rejection.
func TestSessionBudgetExhaustion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "ex", Facts: transferFacts(), Budget: 8})

	qr := query(t, ts.URL, "ex", anchorQ) // 6 facts ship: spends ≥ 6
	if qr.BudgetSpent == 0 || qr.BudgetRemaining != 8-qr.BudgetSpent {
		t.Fatalf("ledger: %+v", qr)
	}
	// The self-join needs another full shipment; the remainder can't pay.
	status, raw := do(t, "POST", ts.URL+"/v1/query", queryRequest{Session: "ex", Query: uncoveredQ})
	if status != http.StatusTooManyRequests || errCode(t, raw) != CodeSessionBudget {
		t.Fatalf("want session-budget rejection, got %d %s", status, raw)
	}
	// Covered queries still serve: reuse is free and stays admissible.
	free := query(t, ts.URL, "ex", coveredQ3)
	if free.Path != PathReused {
		t.Fatalf("reuse blocked by exhausted budget: %+v", free)
	}
}

// TestGatherChargedAgainstBudgets pins that the gather path prices |I|
// against the per-query budget and the session's, and that a refused
// gather leaves the session as it was and is refused before the
// fragments are unioned: a hundred refusals on a 20 000-fact session
// allocate less than one union of it.
func TestGatherChargedAgainstBudgets(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "gb", Generator: "cycle", N: 64, Budget: 100})
	_, before := do(t, "GET", ts.URL+"/v1/sessions/gb", nil)
	status, raw := do(t, "POST", ts.URL+"/v1/query", queryRequest{
		Session: "gb", Lang: LangDatalog, Out: "T",
		Query:  "T(x, y) :- E(x, y)",
		Budget: 63, // |I| = 64 > 63
	})
	if status != http.StatusTooManyRequests || errCode(t, raw) != CodeBudgetExceeded {
		t.Fatalf("gather over budget: %d %s", status, raw)
	}
	if _, after := do(t, "GET", ts.URL+"/v1/sessions/gb", nil); string(after) != string(before) {
		t.Fatalf("a gather over its budget moved the session:\n  before %s\n  after  %s", before, after)
	}
	status, raw = do(t, "POST", ts.URL+"/v1/query", queryRequest{
		Session: "gb", Lang: LangDatalog, Out: "T",
		Query:  "T(x, y) :- E(x, y)",
		Budget: 64,
	})
	if status != http.StatusOK {
		t.Fatalf("gather at budget: %d %s", status, raw)
	}
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if qr.MaxLoad != 64 || qr.Comm != 64 {
		t.Fatalf("gather cost: %+v", qr)
	}
	_, before = do(t, "GET", ts.URL+"/v1/sessions/gb", nil)
	status, raw = do(t, "POST", ts.URL+"/v1/query", queryRequest{
		Session: "gb", Lang: LangDatalog, Out: "T",
		Query: "T(x, y) :- E(x, y)", // 36 of the session's 100 remain
	})
	if status != http.StatusTooManyRequests || errCode(t, raw) != CodeSessionBudget {
		t.Fatalf("gather over the session's budget: %d %s", status, raw)
	}
	if _, after := do(t, "GET", ts.URL+"/v1/sessions/gb", nil); string(after) != string(before) {
		t.Fatalf("a gather over the session's budget moved the session:\n  before %s\n  after  %s", before, after)
	}

	const n = 20000
	do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "big", Generator: "cycle", N: n, Budget: 1})
	big := s.sessions["big"]
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if union := big.cluster.Output(); union.Len() != n {
		t.Fatalf("the union holds %d facts, want %d", union.Len(), n)
	}
	runtime.ReadMemStats(&m1)
	for i := 0; i < 100; i++ {
		req := queryRequest{Session: "big", Lang: LangDatalog, Out: "T", Query: "T(x, y) :- E(x, y)", Budget: n - 1}
		want := CodeBudgetExceeded
		if i%2 == 1 {
			req.Budget, want = n, CodeSessionBudget
		}
		if _, aerr := big.run(&req); aerr == nil || aerr.Code != want {
			t.Fatalf("refused gather %d: %v, want %s", i, aerr, want)
		}
	}
	runtime.ReadMemStats(&m2)
	if union, refused := m1.TotalAlloc-m0.TotalAlloc, m2.TotalAlloc-m1.TotalAlloc; refused >= union {
		t.Fatalf("100 refused gathers allocated %d bytes, one union of the session %d", refused, union)
	}
}

// TestOverloadTyped fills every concurrency slot by hand and checks the
// queue bound rejects typed once MaxQueued waiters are already parked.
func TestOverloadTyped(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueued: 1})
	do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "ov", Facts: []string{"R(a, b)"}})

	// Occupy the only slot and the only queue seat from the test.
	s.slots <- struct{}{}
	s.slotMu.Lock()
	s.waiting++
	s.slotMu.Unlock()

	status, raw := do(t, "POST", ts.URL+"/v1/query", queryRequest{Session: "ov", Query: "A(x) :- R(x, y)"})
	if status != http.StatusTooManyRequests || errCode(t, raw) != CodeOverloaded {
		t.Fatalf("overload: %d %s", status, raw)
	}
	if s.Statz().RejectedOverloaded != 1 {
		t.Fatalf("statz: %+v", s.Statz())
	}

	// Release the synthetic load: the parked waiter seat frees and the
	// next query serves normally.
	s.slotMu.Lock()
	s.waiting--
	s.slotMu.Unlock()
	<-s.slots
	qr := query(t, ts.URL, "ov", "A(x) :- R(x, y)")
	if qr.Count != 1 {
		t.Fatalf("post-overload query: %+v", qr)
	}
}

// TestDrainNeverStrands runs queries from many goroutines while a drain
// races in: every request gets exactly one response — a real answer or
// a typed draining rejection, never a hang or a torn state — and the
// server lands with zero in-flight queries.
func TestDrainNeverStrands(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i := 0; i < 4; i++ {
		do(t, "POST", ts.URL+"/v1/sessions", createRequest{
			ID: fmt.Sprintf("dr%d", i), Generator: "join", N: 128,
		})
	}

	const clients = 16
	results := make([]string, clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) { // no t.Fatal here: it must not fire off the test goroutine
			defer wg.Done()
			<-start
			sess := fmt.Sprintf("dr%d", i%4)
			body, _ := json.Marshal(queryRequest{Session: sess, Query: anchorQ})
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				results[i] = "transport: " + err.Error()
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				results[i] = "ok"
			case http.StatusServiceUnavailable:
				var e apiError
				if json.Unmarshal(raw, &e) == nil {
					results[i] = e.Code
				} else {
					results[i] = "undecodable 503: " + string(raw)
				}
			default:
				results[i] = fmt.Sprintf("unexpected %d: %s", resp.StatusCode, raw)
			}
		}(i)
	}
	close(start)
	s.Drain() // races with the clients; waits for all admitted work
	wg.Wait()

	for i, r := range results {
		if r != "ok" && r != CodeDraining {
			t.Fatalf("client %d: %s", i, r)
		}
	}
	sz := s.Statz()
	if sz.InFlight != 0 {
		t.Fatalf("drain stranded %d in-flight queries", sz.InFlight)
	}
	if !sz.Draining {
		t.Fatal("server not draining after Drain returned")
	}
}
