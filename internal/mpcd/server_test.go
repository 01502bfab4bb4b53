package mpcd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newTestServer spins up the handler on an in-process listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// do sends one JSON request and returns (status, body).
func do(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, raw
}

// errCode decodes the error envelope's code.
func errCode(t *testing.T, raw []byte) string {
	t.Helper()
	var e apiError
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("decode error envelope %q: %v", raw, err)
	}
	return e.Code
}

func TestCreateQueryStatusDelete(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, raw := do(t, "POST", ts.URL+"/v1/sessions", createRequest{
		ID:    "alpha",
		Facts: []string{"R(a, b)", "R(b, c)", "S(b, x)", "S(c, y)"},
	})
	if status != http.StatusOK {
		t.Fatalf("create: status %d body %s", status, raw)
	}
	var cr createResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("decode create response: %v", err)
	}
	if cr.Session != "alpha" || cr.Facts != 4 || cr.P != 8 {
		t.Fatalf("create response %+v", cr)
	}

	status, raw = do(t, "POST", ts.URL+"/v1/query", queryRequest{
		Session: "alpha",
		Query:   "A(x, z) :- R(x, y), S(y, z)",
	})
	if status != http.StatusOK {
		t.Fatalf("query: status %d body %s", status, raw)
	}
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatalf("decode query response: %v", err)
	}
	if qr.Path != PathRepartitioned {
		t.Fatalf("first CQ should repartition, got %q", qr.Path)
	}
	want := []string{"A(a,x)", "A(b,y)"}
	if fmt.Sprint(qr.Output) != fmt.Sprint(want) {
		t.Fatalf("output %v, want %v", qr.Output, want)
	}
	if qr.Comm == 0 || qr.MaxLoad == 0 {
		t.Fatalf("repartition should cost communication: %+v", qr)
	}

	status, raw = do(t, "GET", ts.URL+"/v1/sessions/alpha", nil)
	if status != http.StatusOK {
		t.Fatalf("status: %d body %s", status, raw)
	}
	var st SessionStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if st.Queries != 1 || st.Repartitioned != 1 || st.Anchor == "" || st.BudgetSpent != qr.Comm {
		t.Fatalf("session status %+v", st)
	}

	status, _ = do(t, "DELETE", ts.URL+"/v1/sessions/alpha", nil)
	if status != http.StatusOK {
		t.Fatalf("delete: status %d", status)
	}
	status, raw = do(t, "GET", ts.URL+"/v1/sessions/alpha", nil)
	if status != http.StatusNotFound || errCode(t, raw) != CodeNotFound {
		t.Fatalf("deleted session still answers: %d %s", status, raw)
	}
}

func TestDatalogQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, raw := do(t, "POST", ts.URL+"/v1/sessions", createRequest{
		ID:    "dl",
		Facts: []string{"E(a, b)", "E(b, c)", "E(c, d)"},
	})
	var cr createResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	status, raw := do(t, "POST", ts.URL+"/v1/query", queryRequest{
		Session: "dl",
		Lang:    LangDatalog,
		Query:   "T(x, y) :- E(x, y)\nT(x, z) :- T(x, y), E(y, z)",
		Out:     "T",
	})
	if status != http.StatusOK {
		t.Fatalf("datalog query: %d %s", status, raw)
	}
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if qr.Path != PathGathered {
		t.Fatalf("datalog should gather, got %q", qr.Path)
	}
	if qr.Count != 6 { // transitive closure of a 4-node path
		t.Fatalf("TC of a path of 4 nodes has 6 pairs, got %d: %v", qr.Count, qr.Output)
	}
	if qr.Comm != 3 {
		t.Fatalf("gather of 3 facts should cost 3, got %d", qr.Comm)
	}
}

// TestDatalogHeadArityClashIsTyped: a program that derives a relation
// the session holds at another arity — in its only rule, in a recursive
// rule, in the upper of two strata, or as the ADom it asks the evaluator
// to populate — cannot be unioned with the data. That is the request's
// fault: a 400 over the wire, not a dropped connection, with nothing
// charged and the session byte for byte as it was.
func TestDatalogHeadArityClashIsTyped(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	do(t, "POST", ts.URL+"/v1/sessions", createRequest{
		ID:    "clash",
		Facts: []string{"R(a, b)", "R(b, c)", "T(a, b)", "ADom(a, b)"},
	})
	query(t, ts.URL, "clash", "A(x, z) :- R(x, y), R(y, z)") // an anchor: the ledger is not at zero
	sess := s.sessions["clash"]
	before := sessionImage(t, sess)
	_, status := do(t, "GET", ts.URL+"/v1/sessions/clash", nil)
	for _, c := range []struct{ name, program, out string }{
		{"one rule", "T(x) :- R(x, y)", "T"},
		{"recursive", "T(x) :- R(x, y)\nT(x) :- T(y), R(x, y)", "T"},
		{"two strata", "U(x) :- R(x, y)\nT(x) :- R(x, y), not U(y)", "T"},
		{"populated ADom", "V(x) :- ADom(x), not R(x, x)", "V"},
	} {
		code, raw := do(t, "POST", ts.URL+"/v1/query", queryRequest{Session: "clash", Lang: LangDatalog, Query: c.program, Out: c.out})
		if code != http.StatusBadRequest || errCode(t, raw) != CodeBadRequest {
			t.Errorf("%s: %d %s, want a 400 bad_request", c.name, code, raw)
		}
		if _, after := do(t, "GET", ts.URL+"/v1/sessions/clash", nil); string(after) != string(status) {
			t.Errorf("%s: the ledger moved:\n  before %s\n  after  %s", c.name, status, after)
		}
		if after := sessionImage(t, sess); after != before {
			t.Errorf("%s: the session changed", c.name)
		}
	}
	// The same programs over data that does not clash still run.
	code, raw := do(t, "POST", ts.URL+"/v1/query", queryRequest{Session: "clash", Lang: LangDatalog, Query: "T(x, y) :- R(x, y)\nT(x, z) :- T(x, y), R(y, z)", Out: "T"})
	if code != http.StatusOK {
		t.Fatalf("a program deriving T at the data's arity: %d %s", code, raw)
	}
}

func TestNegatedCQGathers(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	do(t, "POST", ts.URL+"/v1/sessions", createRequest{
		ID:    "neg",
		Facts: []string{"R(a, b)", "R(b, c)", "S(b)"},
	})
	status, raw := do(t, "POST", ts.URL+"/v1/query", queryRequest{
		Session: "neg",
		Query:   "A(x, y) :- R(x, y), not S(y)",
	})
	if status != http.StatusOK {
		t.Fatalf("CQ¬: %d %s", status, raw)
	}
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if qr.Path != PathGathered {
		t.Fatalf("CQ¬ should gather, got %q", qr.Path)
	}
	if fmt.Sprint(qr.Output) != fmt.Sprint([]string{"A(b,c)"}) {
		t.Fatalf("output %v", qr.Output)
	}
}

func TestGeneratorSessions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, g := range []struct {
		gen   string
		n     int
		facts int
	}{
		{"join", 64, 128},
		{"triangle", 32, 96},
		{"cycle", 16, 16},
		{"path", 16, 16}, // PathGraph(n) is the path 0→1→…→n: n edges
	} {
		status, raw := do(t, "POST", ts.URL+"/v1/sessions", createRequest{Generator: g.gen, N: g.n})
		if status != http.StatusOK {
			t.Fatalf("create %s: %d %s", g.gen, status, raw)
		}
		var cr createResponse
		if err := json.Unmarshal(raw, &cr); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if cr.Facts != g.facts {
			t.Fatalf("%s(%d): %d facts, want %d", g.gen, g.n, cr.Facts, g.facts)
		}
	}
	status, raw := do(t, "POST", ts.URL+"/v1/sessions", createRequest{Generator: "nope", N: 4})
	if status != http.StatusBadRequest || errCode(t, raw) != CodeBadRequest {
		t.Fatalf("unknown generator: %d %s", status, raw)
	}
	status, raw = do(t, "POST", ts.URL+"/v1/sessions", createRequest{Generator: "join"})
	if status != http.StatusBadRequest {
		t.Fatalf("generator without n: %d %s", status, raw)
	}
}

func TestTypedRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 2})

	// Parse error.
	do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "rj", Facts: []string{"R(a, b)"}})
	status, raw := do(t, "POST", ts.URL+"/v1/query", queryRequest{Session: "rj", Query: "A(x :- R(x, y)"})
	if status != http.StatusBadRequest || errCode(t, raw) != CodeParse {
		t.Fatalf("parse error: %d %s", status, raw)
	}
	// Unsafe head variable is a parse-level rejection too.
	status, raw = do(t, "POST", ts.URL+"/v1/query", queryRequest{Session: "rj", Query: "A(z) :- R(x, y)"})
	if status != http.StatusBadRequest || errCode(t, raw) != CodeParse {
		t.Fatalf("unsafe query: %d %s", status, raw)
	}
	// A body that reads one relation at two arities.
	status, raw = do(t, "POST", ts.URL+"/v1/query", queryRequest{Session: "rj", Query: "A(x) :- R(x), R(x, y)"})
	if status != http.StatusBadRequest || errCode(t, raw) != CodeParse {
		t.Fatalf("two arities in one body: %d %s", status, raw)
	}
	// An atom at another arity than the data's is no error: it matches nothing.
	if qr := query(t, ts.URL, "rj", "A(x) :- R(x, y, z)"); qr.Count != 0 {
		t.Fatalf("an atom wider than the data: %+v", qr)
	}
	// Unknown language.
	status, raw = do(t, "POST", ts.URL+"/v1/query", queryRequest{Session: "rj", Query: "A(x) :- R(x, y)", Lang: "sql"})
	if status != http.StatusBadRequest || errCode(t, raw) != CodeBadRequest {
		t.Fatalf("unknown lang: %d %s", status, raw)
	}
	// Datalog without out.
	status, raw = do(t, "POST", ts.URL+"/v1/query", queryRequest{Session: "rj", Query: "T(x) :- E(x, y)", Lang: LangDatalog})
	if status != http.StatusBadRequest || errCode(t, raw) != CodeBadRequest {
		t.Fatalf("datalog without out: %d %s", status, raw)
	}
	// Unknown session.
	status, raw = do(t, "POST", ts.URL+"/v1/query", queryRequest{Session: "ghost", Query: "A(x) :- R(x, y)"})
	if status != http.StatusNotFound || errCode(t, raw) != CodeNotFound {
		t.Fatalf("unknown session: %d %s", status, raw)
	}
	// Missing session id.
	status, raw = do(t, "POST", ts.URL+"/v1/query", queryRequest{Query: "A(x) :- R(x, y)"})
	if status != http.StatusBadRequest {
		t.Fatalf("missing session: %d %s", status, raw)
	}
	// Duplicate id.
	status, raw = do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "rj"})
	if status != http.StatusConflict || errCode(t, raw) != CodeConflict {
		t.Fatalf("duplicate id: %d %s", status, raw)
	}
	// Invalid id.
	status, raw = do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "../etc"})
	if status != http.StatusBadRequest {
		t.Fatalf("invalid id: %d %s", status, raw)
	}
	// One relation at two arities: within the listed facts, and against
	// the generator's.
	for _, create := range []createRequest{
		{ID: "ar", Facts: []string{"R(a, b)", "R(c)"}},
		{ID: "ar", Generator: "join", N: 4, Facts: []string{"S(a)"}},
	} {
		status, raw = do(t, "POST", ts.URL+"/v1/sessions", create)
		if status != http.StatusBadRequest || errCode(t, raw) != CodeBadRequest {
			t.Fatalf("mixed arities: %d %s", status, raw)
		}
	}
	// Session limit.
	do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "rj2"})
	status, raw = do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "rj3"})
	if status != http.StatusTooManyRequests || errCode(t, raw) != CodeSessionLimit {
		t.Fatalf("session limit: %d %s", status, raw)
	}
}

func TestMalformedBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || errCode(t, raw) != CodeBadRequest {
		t.Fatalf("malformed JSON: %d %s", resp.StatusCode, raw)
	}

	resp, err = http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"session":"x"} trailing`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing garbage: %d %s", resp.StatusCode, raw)
	}

	big := `{"session":"` + strings.Repeat("x", 1024) + `"}`
	resp, err = http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || errCode(t, raw) != CodeBodyTooLarge {
		t.Fatalf("oversized body: %d %s", resp.StatusCode, raw)
	}
}

func TestHealthzStatzAndMethodDispatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, raw := do(t, "GET", ts.URL+"/v1/healthz", nil)
	if status != http.StatusOK {
		t.Fatalf("healthz: %d", status)
	}
	var h healthResponse
	if err := json.Unmarshal(raw, &h); err != nil || !h.OK || h.Draining {
		t.Fatalf("healthz body %s (err %v)", raw, err)
	}

	do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "z", Facts: []string{"R(a, b)"}})
	do(t, "POST", ts.URL+"/v1/query", queryRequest{Session: "z", Query: "A(x) :- R(x, y)"})
	status, raw = do(t, "GET", ts.URL+"/v1/statz", nil)
	if status != http.StatusOK {
		t.Fatalf("statz: %d", status)
	}
	var sz StatzResponse
	if err := json.Unmarshal(raw, &sz); err != nil {
		t.Fatalf("decode statz: %v", err)
	}
	if sz.Admitted != 1 || sz.Sessions != 1 || sz.SessionsCreated != 1 || sz.Repartitioned != 1 {
		t.Fatalf("statz %+v", sz)
	}

	// Wrong method on a registered path.
	status, _ = do(t, "GET", ts.URL+"/v1/query", nil)
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query: %d, want 405", status)
	}
}

func TestDrainRejectsTyped(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "d1", Facts: []string{"R(a, b)"}})

	status, raw := do(t, "POST", ts.URL+"/v1/drain", nil)
	if status != http.StatusOK {
		t.Fatalf("drain: %d %s", status, raw)
	}
	if !s.Draining() {
		t.Fatal("server not draining after /v1/drain")
	}
	// Every session-touching operation is now refused typed.
	status, raw = do(t, "POST", ts.URL+"/v1/query", queryRequest{Session: "d1", Query: "A(x) :- R(x, y)"})
	if status != http.StatusServiceUnavailable || errCode(t, raw) != CodeDraining {
		t.Fatalf("query during drain: %d %s", status, raw)
	}
	status, raw = do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: "d2"})
	if status != http.StatusServiceUnavailable || errCode(t, raw) != CodeDraining {
		t.Fatalf("create during drain: %d %s", status, raw)
	}
	for _, method := range []string{"GET", "DELETE"} {
		status, raw = do(t, method, ts.URL+"/v1/sessions/d1", nil)
		if status != http.StatusServiceUnavailable || errCode(t, raw) != CodeDraining {
			t.Fatalf("%s during drain: %d %s", method, status, raw)
		}
	}
	// Drain is idempotent.
	status, _ = do(t, "POST", ts.URL+"/v1/drain", nil)
	if status != http.StatusOK {
		t.Fatalf("second drain: %d", status)
	}
	// healthz keeps answering and reports the state.
	status, raw = do(t, "GET", ts.URL+"/v1/healthz", nil)
	var h healthResponse
	if err := json.Unmarshal(raw, &h); err != nil || status != http.StatusOK || !h.Draining {
		t.Fatalf("healthz during drain: %d %s", status, raw)
	}
	// statz answers too, and counts exactly the four refused operations.
	status, raw = do(t, "GET", ts.URL+"/v1/statz", nil)
	var sz StatzResponse
	if err := json.Unmarshal(raw, &sz); err != nil || status != http.StatusOK || !sz.Draining || sz.RejectedDraining != 4 {
		t.Fatalf("statz during drain: %d %s, want rejected_draining 4", status, raw)
	}
}

// TestPlanAndCoverCachesShared pins that the second session's identical
// query hits the server-wide plan cache rather than re-solving the LP.
func TestPlanAndCoverCachesShared(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, id := range []string{"c1", "c2"} {
		do(t, "POST", ts.URL+"/v1/sessions", createRequest{ID: id, Facts: []string{"R(a, b)", "S(b, c)"}})
		status, raw := do(t, "POST", ts.URL+"/v1/query", queryRequest{Session: id, Query: "A(x, z) :- R(x, y), S(y, z)"})
		if status != http.StatusOK {
			t.Fatalf("query %s: %d %s", id, status, raw)
		}
	}
	sz := s.Statz()
	if sz.PlanMisses != 1 || sz.PlanHits < 1 {
		t.Fatalf("plan cache not shared across sessions: %+v", sz)
	}
}
