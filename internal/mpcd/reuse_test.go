package mpcd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

// query runs one query and decodes the response, failing on any error.
func query(t *testing.T, url, session, q string) QueryResponse {
	t.Helper()
	status, raw := do(t, "POST", url+"/v1/query", queryRequest{Session: session, Query: q})
	if status != http.StatusOK {
		t.Fatalf("query %q: %d %s", q, status, raw)
	}
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return qr
}

// The transfer workload: anchor a two-atom join, then queries the
// anchor's distribution provably covers (same body modulo projection
// and reorder, and a body subset) and one it provably does not (a
// self-join over R needs R replicated by both columns).
const (
	anchorQ    = "A(x, z) :- R(x, y), S(y, z)"
	coveredQ1  = "B(x) :- R(x, y), S(y, z)"    // projection of the anchor
	coveredQ2  = "C(z, x) :- S(y, z), R(x, y)" // reordered body, swapped head
	coveredQ3  = "D(x, y) :- R(x, y)"          // body subset
	uncoveredQ = "D(x, z) :- R(x, y), R(y, z)" // self-join: not covered
)

func transferFacts() []string {
	return []string{
		"R(a, b)", "R(b, c)", "R(c, d)",
		"S(b, u)", "S(c, v)", "S(d, w)",
	}
}

func TestReusePathZeroComm(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "ru", Facts: transferFacts()})

	first := query(t, ts.URL, "ru", anchorQ)
	if first.Path != PathRepartitioned {
		t.Fatalf("anchor path %q, want repartitioned", first.Path)
	}

	// Same query again: transfer is reflexive, distribution is warm.
	again := query(t, ts.URL, "ru", anchorQ)
	if again.Path != PathReused || again.Comm != 0 || again.MaxLoad != 0 {
		t.Fatalf("repeat anchor: %+v", again)
	}
	if fmt.Sprint(again.Output) != fmt.Sprint(first.Output) {
		t.Fatalf("reused output %v differs from anchor output %v", again.Output, first.Output)
	}
	if again.BudgetSpent != first.BudgetSpent {
		t.Fatalf("reuse charged the budget: %d → %d", first.BudgetSpent, again.BudgetSpent)
	}

	// Provably covered queries ride the warm distribution for free.
	for _, q := range []string{coveredQ1, coveredQ2, coveredQ3} {
		qr := query(t, ts.URL, "ru", q)
		if qr.Path != PathReused || qr.Comm != 0 {
			t.Fatalf("%q: path %q comm %d, want reused with zero comm", q, qr.Path, qr.Comm)
		}
	}
	// Sanity on one covered answer: D(x, y) :- R(x, y) is just R.
	d := query(t, ts.URL, "ru", coveredQ3)
	want := []string{"D(a,b)", "D(b,c)", "D(c,d)"}
	if fmt.Sprint(d.Output) != fmt.Sprint(want) {
		t.Fatalf("covered subset output %v, want %v", d.Output, want)
	}

	// The self-join is NOT covered: it must repartition and pay.
	sj := query(t, ts.URL, "ru", uncoveredQ)
	if sj.Path != PathRepartitioned || sj.Comm == 0 {
		t.Fatalf("self-join: %+v, want repartitioned with comm > 0", sj)
	}
	wantSJ := []string{"D(a,c)", "D(b,d)"}
	if fmt.Sprint(sj.Output) != fmt.Sprint(wantSJ) {
		t.Fatalf("self-join output %v, want %v", sj.Output, wantSJ)
	}

	// After the self-join repartition the anchor changed; the old
	// anchor no longer rides for free (self-join doesn't cover it)…
	back := query(t, ts.URL, "ru", anchorQ)
	if back.Path != PathRepartitioned {
		t.Fatalf("anchor after self-join: path %q, want repartitioned", back.Path)
	}
	// …but its answers are unchanged.
	if fmt.Sprint(back.Output) != fmt.Sprint(first.Output) {
		t.Fatalf("anchor output drifted across repartitions: %v vs %v", back.Output, first.Output)
	}
}

// TestReuseStrictlyCheaper pins the acceptance criterion: the same
// query script on the same data costs strictly less total communication
// with reuse enabled than with it disabled, and produces identical
// answers either way.
func TestReuseStrictlyCheaper(t *testing.T) {
	script := []string{anchorQ, coveredQ1, coveredQ2, coveredQ3, anchorQ}

	runScript := func(disable bool) (outputs []string, comm int, reused int) {
		s, ts := newTestServer(t, Config{DisableReuse: disable})
		do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "x", Facts: transferFacts()})
		for _, q := range script {
			qr := query(t, ts.URL, "x", q)
			outputs = append(outputs, fmt.Sprint(qr.Output))
			comm += qr.Comm
		}
		return outputs, comm, s.Statz().Reused
	}

	outOn, commOn, reusedOn := runScript(false)
	outOff, commOff, reusedOff := runScript(true)

	if fmt.Sprint(outOn) != fmt.Sprint(outOff) {
		t.Fatalf("reuse changed answers:\n  on:  %v\n  off: %v", outOn, outOff)
	}
	if commOn >= commOff {
		t.Fatalf("reuse total comm %d, always-repartition %d: want strictly less", commOn, commOff)
	}
	if reusedOn != len(script)-1 {
		t.Fatalf("reuse hit %d of %d eligible queries", reusedOn, len(script)-1)
	}
	if reusedOff != 0 {
		t.Fatalf("DisableReuse still reused %d queries", reusedOff)
	}
}

// TestReuseSurvivesIrrelevantFacts pins the parking fallback: facts
// matching no anchor atom are parked, not dropped, and covered queries
// still answer correctly from the warm fragments.
func TestReuseSurvivesIrrelevantFacts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	facts := append(transferFacts(), "Z(q, r)", "Z(r, s)") // Z matches no anchor atom
	do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "pk", Facts: facts})

	query(t, ts.URL, "pk", anchorQ)
	qr := query(t, ts.URL, "pk", coveredQ3)
	if qr.Path != PathReused {
		t.Fatalf("covered query path %q", qr.Path)
	}
	want := []string{"D(a,b)", "D(b,c)", "D(c,d)"}
	if fmt.Sprint(qr.Output) != fmt.Sprint(want) {
		t.Fatalf("output with parked facts %v, want %v", qr.Output, want)
	}
	// The parked facts are still in the session: a gather sees them.
	status, raw := do(t, "POST", ts.URL+"/v1/query", queryRequest{
		Session: "pk", Lang: LangDatalog, Query: "W(x, y) :- Z(x, y)", Out: "W",
	})
	if status != http.StatusOK {
		t.Fatalf("gather over parked relation: %d %s", status, raw)
	}
	var g QueryResponse
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if g.Count != 2 {
		t.Fatalf("parked facts lost: %v", g.Output)
	}
}

// TestCoverSizeGate pins that queries over the MaxCoverVars gate skip
// the exponential search and repartition instead.
func TestCoverSizeGate(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxCoverVars: 2, MaxCoverAtoms: 1})
	do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "g", Facts: transferFacts()})

	query(t, ts.URL, "g", anchorQ) // 3 vars, 2 atoms: over the gate
	qr := query(t, ts.URL, "g", coveredQ1)
	if qr.Path != PathRepartitioned {
		t.Fatalf("gated pair path %q, want repartitioned (cover skipped)", qr.Path)
	}
	if s.Statz().CoverSkips == 0 {
		t.Fatal("cover gate never fired")
	}
}

// The law's script (TestTransferLawAtServingSeam): the serving set and
// its variants over a generated join plus hand-placed facts. The
// repartition oracle walks it too (TestRepartitionMatchesReference).
var (
	lawQueries = []string{
		anchorQ, coveredQ1, coveredQ2, coveredQ3, // A–D of the serving set
		"E() :- R(x, y), S(y, z)",
		"F(x, z) :- R(x, y), R(y, z)",
		"E() :- R(x1, y1), S(y1, z1)",         // alpha variant of E
		"A(u, w) :- R(u, v), S(v, w)",         // alpha variant of A
		"G(x) :- R(x, 16777217)",              // a generated value as constant
		"K(z) :- R('a', y), S(y, z)",          // an interned one
		"L(x) :- R(x, x)",                     // repeated variable
		"N() :- R(x, x)",                      // …under a Boolean head
		"M(x, y) :- R(x, y), x != y",          // inequality
		"P(x, z) :- R(x, y), S(y, z), x != z", // …across a join
		"Q() :- S(x, y)",
		"T(y) :- S(y, z), R(x, y)",
	}
	lawCreate = createRequest{
		ID: "law", Generator: "join", N: 96,
		Facts: []string{
			"R(a, a)", "R(a, b)", "R(b, c)", "S(b, b)", "S(c, a)", // diagonals, a two-step R path
			"Z(q, r)", "Z(r, s)", "W(a)", // outside R and S: parked by every anchor
		},
	}
)

// TestTransferLawAtServingSeam holds Proposition 4.13 as a law where
// the daemon spends it: whenever pc.Covers lets a query ride the
// anchor's warm fragments, the answer must be the one a server that
// always repartitions gives. Two servers with one seed run the same
// seeded script over the same session; path, comm and the ledgers
// legitimately differ, output and count may not. A wrong "covers"
// verdict on any pair the script reaches evaluates on fragments that
// are not parallel-correct for the query and loses answers.
func TestTransferLawAtServingSeam(t *testing.T) {
	queries, create := lawQueries, lawCreate
	_, reuse := newTestServer(t, Config{})
	_, always := newTestServer(t, Config{DisableReuse: true})
	for _, ts := range []string{reuse.URL, always.URL} {
		if status, raw := do(t, "POST", ts+"/v1/sessions", create); status != http.StatusOK {
			t.Fatalf("create: %d %s", status, raw)
		}
	}

	r := rand.New(rand.NewSource(41))
	crossReused, uncovered := 0, 0
	for n := 0; n < 72; n++ {
		q := queries[r.Intn(len(queries))]
		_, raw := do(t, "GET", reuse.URL+"/v1/sessions/law", nil)
		var st SessionStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
		got, want := query(t, reuse.URL, "law", q), query(t, always.URL, "law", q)
		if got.Count != want.Count || fmt.Sprint(got.Output) != fmt.Sprint(want.Output) {
			t.Fatalf("query %d %q on anchor %q: %s reply has %d facts, always-repartition has %d\n  %v\n  %v",
				n, q, st.Anchor, got.Path, got.Count, want.Count, got.Output, want.Output)
		}
		if want.Path != PathRepartitioned {
			t.Fatalf("query %d %q: baseline path %q", n, q, want.Path)
		}
		switch {
		case got.Path == PathReused && st.Anchor != got.Query:
			crossReused++
		case got.Path == PathRepartitioned && st.Anchor != "":
			uncovered++
		}
	}
	if crossReused == 0 || uncovered == 0 {
		t.Fatalf("script reused across queries %d times and met %d uncovered queries: the law was not exercised in both directions", crossReused, uncovered)
	}
}

// BenchmarkReuse is serve_reuse's warm op in process: one query the
// anchor covers, through Handler() with no socket — decode, the cached
// parse and cover verdict, evaluation on the 8 warm fragments of a
// 40 000-fact session, the encoded reply. A is the anchor's own
// 20 000-tuple answer (419 KB of reply); B projects it, so the parts'
// binding rows hold duplicates out removes; D scans one atom; E is
// Boolean, so evaluation is all of it.
func BenchmarkReuse(b *testing.B) {
	for _, c := range []struct{ name, query string }{
		{"A", anchorQ},
		{"B", coveredQ1},
		{"D", coveredQ3},
		{"E", "E() :- R(x, y), S(y, z)"},
	} {
		b.Run(c.name, func(b *testing.B) {
			sess := joinSession(b, 20000, 1<<40)
			h := sess.srv.Handler()
			post := func(q string) *httptest.ResponseRecorder {
				body, err := json.Marshal(queryRequest{Session: sess.ID, Query: q})
				if err != nil {
					b.Fatal(err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("%s: %d %s", q, rec.Code, rec.Body)
				}
				return rec
			}
			post(anchorQ) // repartitions: the fragments are warm from here on
			if rec := post(c.query); !bytes.Contains(rec.Body.Bytes(), []byte(`"path":"reused","max_load":0,"comm":0`)) {
				b.Fatalf("%s was not served reused: %.200s", c.query, rec.Body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(c.query)
			}
		})
	}
}

// BenchmarkGather is the gather path in process, through Handler() with
// no socket, on a 4 000-fact join session whose fragments the
// self-join anchor has replicated: N is a CQ¬ query, T a Datalog
// program, both admitted, so each routes the fragments to one server,
// evaluates there and encodes its reply; refused is N at query budget
// 1, which is priced and refused before anything is delivered. tiny is
// T on an 80-fact session at the default p = 8, the shape of a small
// session's gather: its round is under the engine's inline size, so no
// phase of it starts a goroutine.
func BenchmarkGather(b *testing.B) {
	const cqNeg = "N(x, z) :- R(x, y), S(y, z), not R(z, x)"
	const tc = "T(x, y) :- R(x, y)\nT(x, z) :- T(x, y), S(y, z)"
	for _, c := range []struct {
		name   string
		n      int // tuples per relation of the join session
		req    queryRequest
		status int
		want   string
	}{
		{"cqneg", 2000, queryRequest{Query: cqNeg}, http.StatusOK, `"path":"gathered"`},
		{"datalog", 2000, queryRequest{Lang: LangDatalog, Out: "T", Query: tc}, http.StatusOK, `"path":"gathered"`},
		{"refused", 2000, queryRequest{Query: cqNeg, Budget: 1}, http.StatusTooManyRequests, `"code":"budget_exceeded"`},
		{"tiny", 40, queryRequest{Lang: LangDatalog, Out: "T", Query: tc}, http.StatusOK, `"path":"gathered"`},
	} {
		b.Run(c.name, func(b *testing.B) {
			sess := joinSession(b, c.n, 1<<40)
			h := sess.srv.Handler()
			post := func(req queryRequest, status int, want string) {
				req.Session = sess.ID
				body, err := json.Marshal(req)
				if err != nil {
					b.Fatal(err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
				if rec.Code != status || !bytes.Contains(rec.Body.Bytes(), []byte(want)) {
					b.Fatalf("%s: %d %.200s, want %d and %s", req.Query, rec.Code, rec.Body, status, want)
				}
			}
			post(queryRequest{Query: uncoveredQ}, http.StatusOK, `"path":"repartitioned"`)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(c.req, c.status, c.want)
			}
		})
	}
}

// TestQueryCachesAreBounded: a client that sends never-seen texts —
// here alpha-variants of E, three times the largest cap of them — to
// one anchored session keeps the session's parse cache and the server's
// plan and cover caches within their caps. A reset changes no reply:
// each is byte-identical to a fresh server's reply to the same text,
// and the anchor is still served reused afterwards.
func TestQueryCachesAreBounded(t *testing.T) {
	anchored := func() (*Server, func([]byte) []byte) {
		s := New(Config{})
		if _, aerr := s.createSession(&createRequest{ID: "b", Facts: transferFacts()}); aerr != nil {
			t.Fatal(aerr)
		}
		h := http.HandlerFunc(s.handleQuery) // Handler()'s route, without a mux per server
		ask := func(body []byte) []byte {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", body, rec.Code, rec.Body)
			}
			return rec.Body.Bytes()
		}
		if raw := ask(queryBody(t, anchorQ)); !bytes.Contains(raw, []byte(`"path":"repartitioned"`)) {
			t.Fatalf("anchor: %s", raw)
		}
		return s, ask
	}
	s, ask := anchored()
	sess := s.sessions["b"]
	n := 3 * max(maxParsed, maxPlans, maxCovers)
	var resets [3]int
	for i := 0; i < n; i++ {
		body := queryBody(t, fmt.Sprintf("E() :- R(x%d, y%d), S(y%d, z%d)", i, i, i, i))
		parsed, plans, covers := len(sess.parsed), len(s.plans), len(s.covers)
		got := ask(body)
		if !bytes.Contains(got, []byte(`"path":"reused"`)) {
			t.Fatalf("variant %d: %s, want it reused", i, got)
		}
		reset := false
		for k, c := range []struct{ before, after, limit int }{
			{parsed, len(sess.parsed), maxParsed},
			{plans, len(s.plans), maxPlans},
			{covers, len(s.covers), maxCovers},
		} {
			if c.after > c.limit {
				t.Fatalf("variant %d: cache %d holds %d entries, cap %d", i, k, c.after, c.limit)
			}
			if c.after < c.before {
				resets[k]++
				reset = true
			}
		}
		// -short (the race run) compares every 16th reply and every
		// reply whose insert emptied a cache.
		if testing.Short() && !reset && i%16 != 0 {
			continue
		}
		if _, fresh := anchored(); !bytes.Equal(got, fresh(body)) {
			t.Fatalf("variant %d: reply %s, a fresh server's %s", i, got, fresh(body))
		}
	}
	if resets[0] == 0 || resets[1] == 0 || resets[2] == 0 {
		t.Fatalf("resets per cache %v: a cap was never reached", resets)
	}
	if raw := ask(queryBody(t, anchorQ)); !bytes.Contains(raw, []byte(`"path":"reused"`)) {
		t.Fatalf("anchor after the resets: %s, want it reused", raw)
	}
}

// queryBody is the request body asking session b for q.
func queryBody(t *testing.T, q string) []byte {
	t.Helper()
	body, err := json.Marshal(queryRequest{Session: "b", Query: q})
	if err != nil {
		t.Fatal(err)
	}
	return body
}
