package mpcd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpclogic/internal/rel"
)

// FuzzQueryRequest drives the full HTTP surface — decode, parse, plan,
// admit, respond — with arbitrary bodies against a live session. The
// properties: the server never panics, always answers exactly one JSON
// document, never leaks a 5xx for client-supplied garbage, and error
// responses always carry a typed code.
func FuzzQueryRequest(f *testing.F) {
	f.Add(`{"session": "fz", "query": "A(x, z) :- R(x, y), S(y, z)"}`)
	f.Add(`{"session": "fz", "query": "B(x) :- R(x, y), S(y, z)"}`)
	f.Add(`{"session": "fz", "query": "D(x, z) :- R(x, y), R(y, z)", "budget": 1}`)
	f.Add(`{"session": "fz", "query": "T(x, y) :- E(x, y)\nT(x, z) :- T(x, y), E(y, z)", "lang": "datalog", "out": "T"}`)
	f.Add(`{"session": "fz", "query": "A(x) :- R(x, y), not S(y)"}`)
	f.Add(`{"session": "nope", "query": "A(x) :- R(x, y)"}`)
	f.Add(`{"session": "fz", "query": "A(x :- R("}`)
	f.Add(`{"session": "fz"}`)
	f.Add(`{}`)
	f.Add(`{"session": "fz", "query": "A(x) :- R(x, y)", "lang": "sql"}`)
	f.Add(`{"session": "fz", "query": "A(x) :- R(x, y)"} trailing`)
	f.Add(`not json at all`)
	f.Add(``)
	f.Add(`[1, 2, 3]`)
	f.Add(`{"session": "fz", "query": "A(z) :- R(x, y)"}`)
	f.Add(`{"session": "fz", "query": "A(x, z) :- R(x, y), S(y, z)", "budget": -7}`)
	f.Add(`{"session": "fz", "query": "E(x) :- R(x, y)", "lang": "datalog", "out": "E"}`) // a head at another arity than the data's E

	// The handler runs in memory, with no socket between it and the
	// fuzzer: a handler panic fails the run where it happens.
	h := New(Config{MaxBodyBytes: 1 << 14}).Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	// One live session with a warm anchor so fuzzed queries can reach
	// all three serving paths.
	for _, body := range []string{
		`{"id": "fz", "facts": ["R(a, b)", "R(b, c)", "S(b, u)", "S(c, v)", "E(a, b)"]}`,
		`{"session": "fz", "query": "A(x, z) :- R(x, y), S(y, z)"}`,
	} {
		path := "/v1/sessions"
		if strings.Contains(body, `"query"`) {
			path = "/v1/query"
		}
		if rec := serve(http.MethodPost, path, body); rec.Code != http.StatusOK {
			f.Fatalf("priming %s: %d", path, rec.Code)
		}
	}

	f.Fuzz(func(t *testing.T, body string) {
		rec := serve(http.MethodPost, "/v1/query", body)
		raw := rec.Body.Bytes()
		if rec.Code >= 500 {
			t.Fatalf("server 5xx for client input %q: %s", body, raw)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		if rec.Code == http.StatusOK {
			var qr QueryResponse
			if err := dec.Decode(&qr); err != nil {
				t.Fatalf("200 with undecodable body %q: %v", raw, err)
			}
			if qr.Path != PathReused && qr.Path != PathRepartitioned && qr.Path != PathGathered {
				t.Fatalf("200 with unknown path %q", qr.Path)
			}
		} else {
			var e apiError
			if err := dec.Decode(&e); err != nil {
				t.Fatalf("%d with undecodable body %q: %v", rec.Code, raw, err)
			}
			if e.Code == "" || e.Message == "" {
				t.Fatalf("%d with untyped error %q", rec.Code, raw)
			}
		}

		// The session must survive every input intact.
		if hr := serve(http.MethodGet, "/v1/healthz", ""); hr.Code != http.StatusOK {
			t.Fatalf("unhealthy after input %q: %d", body, hr.Code)
		}
	})
}

// FuzzReplyEncoding holds the reply encoder to encoding/json on names
// the fuzzer draws: a session whose relation and value names are the
// fuzzed strings is asked one query per serving path, and each reply
// must be json.Marshal's bytes (checkReply). Between the reused reply
// and the gathered one, a covered query whose head carries the fuzzed
// constant c interns it after the session has already replied. The
// seeds are the awkward names of TestReplyIsEncodingJSONByteForByte, and
// TestReplyEscapesNameInternedLater's plain session and late constant.
func FuzzReplyEncoding(f *testing.F) {
	for k, name := range awkwardNames {
		f.Add(name, awkwardNames[(k+1)%len(awkwardNames)], awkwardNames[(k+2)%len(awkwardNames)], "")
	}
	f.Add("X", "", "", "")
	f.Add("R", "S", "A", "")
	f.Add("Idb", "a", "b", "")
	f.Add("R", "a", "b", lateName)
	srv := New(Config{})
	f.Fuzz(func(t *testing.T, relName, a, b, c string) {
		if relName == "" {
			// A Datalog query needs an output relation with a name.
			t.Skip()
		}
		d := rel.NewDict()
		va, vb := d.Value(a), d.Value(b)
		inst := rel.FromFacts(
			rel.NewFact("R", va, vb), rel.NewFact("R", vb, va), rel.NewFact("R", -1, vb),
			rel.NewFact("S", vb, va), rel.NewFact("S", va, 1<<60),
		)
		if r := inst.Relation(relName); r == nil || r.Arity == 2 {
			inst.Add(rel.NewFact(relName, va, vb))
		}
		sess := sessionOf(t, srv, "fz", d, inst)
		defer func() {
			if aerr := srv.deleteSession(sess.ID); aerr != nil {
				t.Fatal(aerr)
			}
		}()
		checkReply(t, sess, &queryRequest{Session: sess.ID, Query: anchorQ}, PathRepartitioned)
		checkReply(t, sess, &queryRequest{Session: sess.ID, Query: anchorQ}, PathReused)
		if !strings.Contains(c, "'") { // a quoted constant ends at the first quote
			checkReply(t, sess, &queryRequest{Session: sess.ID, Query: lateQuery(c)}, PathReused)
		}
		gathered := &queryRequest{Session: sess.ID, Lang: LangDatalog, Out: relName, Query: "Idb(x) :- R(x, y)"}
		if relName == "Idb" {
			// The session holds a binary Idb, which the program derives
			// at arity 1: a typed refusal, not a reply.
			if _, aerr := sess.run(gathered); aerr == nil || aerr.Code != CodeBadRequest {
				t.Fatalf("a head clashing with the data in arity: %v", aerr)
			}
			return
		}
		checkReply(t, sess, gathered, PathGathered)
	})
}

// FuzzCreateSession drives session creation through the full HTTP
// surface with arbitrary bodies. A body that decodes as one request has
// its generator sizes clamped (a size the server refuses is left as it
// is) so a run stays fast. The properties: the server never panics and
// never answers a 5xx; a refused create leaves the session table and
// SessionsCreated as they were; an admitted create reports the facts,
// width and budget GET /v1/sessions/{id} then shows.
func FuzzCreateSession(f *testing.F) {
	for _, gen := range []string{"join", "join-skewed", "triangle", "triangle-skewed", "cycle", "path", "random-graph"} {
		f.Add(`{"generator": "` + gen + `", "n": 40, "p": 3, "seed": 5}`)
	}
	f.Add(`{"id": "s1", "facts": ["R(a, b)", "S(b, c)"], "budget": 9}`)
	f.Add(`{"generator": "random-graph", "n": 30, "m": 70, "skew": 0.3}`)
	f.Add(`{"id": "../x", "generator": "join", "n": 4194304}`) // a bad id
	f.Add(`{"id": "dup", "facts": ["R(a, b)"]}`)               // a duplicate id
	f.Add(`{"generator": "join", "n": 10, "p": 4097}`)         // p over the cap
	f.Add(`{"facts": ["R(a, b)", "R(a, b, c)"]}`)              // a fact at the wrong arity
	f.Add(`{"generator": "join", "n": 4194305}`)               // n over the cap
	f.Add(`{"generator": "bogus", "n": 3}`)                    // an unknown generator
	f.Add(`{"generator": "random-graph", "n": 1}`)             // more edges than n(n−1)
	f.Add(`{"generator": "random-graph", "n": 3}`)             // the default 4n over n(n−1)
	f.Add(`{"generator": "random-graph", "n": 2, "m": 3}`)     // an explicit m over n(n−1)
	f.Add(`{"facts": ["R(a"]}`)                                // a fact that does not parse
	f.Add(`{"generator": "join", "n": 4194304}]`)              // what Decode stops before
	f.Add(`{"id": "t", "facts": ["R(a, b)"]} {"id": "u"}`)     // trailing data
	f.Add(`not json`)

	srv := New(Config{MaxBodyBytes: 1 << 14})
	h := srv.Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := serve(http.MethodPost, "/v1/sessions", `{"id": "dup", "facts": ["R(a, b)"]}`); rec.Code != http.StatusOK {
		f.Fatalf("priming the duplicate id: %d %s", rec.Code, rec.Body)
	}

	f.Fuzz(func(t *testing.T, body string) {
		var req createRequest
		dec := json.NewDecoder(strings.NewReader(body))
		if dec.Decode(&req) == nil && !dec.More() {
			if req.N > 0 && req.N <= maxGenSize {
				req.N = 1 + (req.N-1)%256
			}
			if req.M > 0 && req.M <= maxGenSize {
				req.M = 1 + (req.M-1)%1024
			}
			raw, err := json.Marshal(&req)
			if err != nil {
				t.Fatal(err)
			}
			body = string(raw)
		}
		sessions, created := srv.Sessions(), srv.Statz().SessionsCreated
		rec := serve(http.MethodPost, "/v1/sessions", body)
		if rec.Code >= 500 {
			t.Fatalf("server %d for client input %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code != http.StatusOK {
			if n, c := srv.Sessions(), srv.Statz().SessionsCreated; n != sessions || c != created {
				t.Fatalf("refused create %q (%d) moved the table from %d sessions, %d created to %d, %d", body, rec.Code, sessions, created, n, c)
			}
			return
		}
		var resp createResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with undecodable body %q: %v", rec.Body, err)
		}
		got := serve(http.MethodGet, "/v1/sessions/"+resp.Session, "")
		var st SessionStatus
		if err := json.Unmarshal(got.Body.Bytes(), &st); got.Code != http.StatusOK || err != nil {
			t.Fatalf("GET of created session %q: %d %s (%v)", resp.Session, got.Code, got.Body, err)
		}
		if st.Facts != resp.Facts || st.P != resp.P || st.BudgetTotal != resp.Budget {
			t.Fatalf("%q: created %+v, GET shows %+v", body, resp, st)
		}
		if del := serve(http.MethodDelete, "/v1/sessions/"+resp.Session, ""); del.Code != http.StatusOK {
			t.Fatalf("delete %q: %d %s", resp.Session, del.Code, del.Body)
		}
	})
}

// FuzzLoadSnapshot drives the restart path with arbitrary snapshot
// files: a restart's whole input is that one file. The properties:
// LoadSnapshot never panics, and any server it returns saves to a file
// that, loaded and saved again, gives the same bytes — save∘load is
// idempotent, so what a restore accepts it also keeps.
func FuzzLoadSnapshot(f *testing.F) {
	saved := func(tb testing.TB, s *Server) []byte {
		tb.Helper()
		dir := tb.TempDir()
		if err := s.SaveSnapshot(dir); err != nil {
			tb.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			tb.Fatal(err)
		}
		return raw
	}
	s := New(Config{})
	if _, aerr := s.createSession(&createRequest{ID: "ck1", Facts: transferFacts(), Budget: 1 << 10}); aerr != nil {
		f.Fatal(aerr)
	}
	body, err := json.Marshal(queryRequest{Session: "ck1", Query: anchorQ})
	if err != nil {
		f.Fatal(err)
	}
	if status, raw := ask(s, body); status != http.StatusOK {
		f.Fatalf("anchoring the seed session: %d %s", status, raw)
	}
	if ck1 := s.sessions["ck1"]; ck1.dict.Len() == 0 || ck1.anchor == nil || ck1.budgetSpent == 0 || ck1.budgetSpent >= ck1.budgetTotal {
		f.Fatal("the seed session lacks a dict, an anchor or a partly spent budget")
	}
	f.Add(saved(f, s))
	f.Add(saved(f, New(Config{})))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := LoadSnapshot(dir, Config{})
		if err != nil {
			return
		}
		first := saved(t, s)
		if err := os.WriteFile(filepath.Join(dir, manifestName), first, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := LoadSnapshot(dir, Config{})
		if err != nil {
			t.Fatalf("a restored server's own snapshot does not load: %v", err)
		}
		if second := saved(t, again); !bytes.Equal(first, second) {
			t.Fatal("save∘load is not idempotent: a restored server's snapshot, loaded and saved again, changed")
		}
	})
}
