package mpcd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRefusedCreateGeneratesNothing: a create the session table refuses
// — at the session limit, or with an id that does not match the
// pattern — is refused before its data is generated, with the same
// body as ever. The request asks for the largest generated instance
// there is (2²² join tuples per relation); refusing it must allocate
// under 1 MiB.
func TestRefusedCreateGeneratesNothing(t *testing.T) {
	const huge = maxGenSize
	h := New(Config{MaxSessions: 1}).Handler()
	post := func(req createRequest) (status int, body string, alloc uint64) {
		t.Helper()
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		hr := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, hr)
		runtime.ReadMemStats(&after)
		return rec.Code, rec.Body.String(), after.TotalAlloc - before.TotalAlloc
	}
	for _, c := range []struct {
		name   string
		req    createRequest
		status int
		body   string
	}{
		{"bad id", createRequest{ID: "../x", Generator: "join", N: huge}, http.StatusBadRequest,
			`{"code":"bad_request","message":"session id must match ^[A-Za-z0-9_-]{1,64}$"}` + "\n"},
		{"fill the table", createRequest{ID: "a"}, http.StatusOK, ""},
		{"at the limit", createRequest{ID: "b", Generator: "join", N: huge}, http.StatusTooManyRequests,
			`{"code":"session_limit","message":"session limit 1 reached"}` + "\n"},
		{"at the limit, fresh id", createRequest{Generator: "join", N: huge}, http.StatusTooManyRequests,
			`{"code":"session_limit","message":"session limit 1 reached"}` + "\n"},
	} {
		status, body, alloc := post(c.req)
		if status != c.status {
			t.Fatalf("%s: status %d (%s), want %d", c.name, status, body, c.status)
		}
		if c.body == "" {
			continue
		}
		if body != c.body {
			t.Errorf("%s: body %q, want %q", c.name, body, c.body)
		}
		if alloc >= 1<<20 {
			t.Errorf("%s: the refused create allocated %d bytes, want < 1 MiB", c.name, alloc)
		}
	}
}

// TestRandomGraphCreateIsBounded: a random-graph create whose edge
// count, m or 4n by default, exceeds the n(n−1) non-loop edges on n
// vertices is refused up front with a 400, generating nothing. Such a
// create used to spin forever drawing edges that cannot exist, holding
// a core and the in-flight count that a drain waits on. Each request
// runs under a deadline, and none may move the session table.
func TestRandomGraphCreateIsBounded(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	post := func(body string) (int, string) {
		t.Helper()
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(body)))
			done <- rec
		}()
		select {
		case rec := <-done:
			return rec.Code, rec.Body.String()
		case <-time.After(10 * time.Second):
			t.Fatalf("create %s did not return within 10 s", body)
			return 0, ""
		}
	}
	for _, c := range []struct{ body, message string }{
		{`{"generator":"random-graph","n":1}`, `needs m ≤ n(n−1) = 0 (and m ≤ 4194304), got m = 4`},
		{`{"generator":"random-graph","n":3}`, `needs m ≤ n(n−1) = 6 (and m ≤ 4194304), got m = 12`},
		{`{"generator":"random-graph","n":2,"m":3}`, `needs m ≤ n(n−1) = 2 (and m ≤ 4194304), got m = 3`},
		{`{"generator":"random-graph","n":2097152}`, `needs m ≤ n(n−1) = 4398044413952 (and m ≤ 4194304), got m = 8388608`},
	} {
		status, body := post(c.body)
		want := `{"code":"bad_request","message":"generator \"random-graph\" ` + c.message + `"}` + "\n"
		if status != http.StatusBadRequest || body != want {
			t.Errorf("create %s: %d %q, want 400 %q", c.body, status, body, want)
		}
		if n, created := srv.Sessions(), srv.Statz().SessionsCreated; n != 0 || created != 0 {
			t.Fatalf("create %s moved the session table to %d sessions, %d created", c.body, n, created)
		}
	}
	for _, body := range []string{
		`{"generator":"random-graph","n":3,"m":6}`,
		`{"generator":"random-graph","n":16}`,
		`{"generator":"random-graph","n":16,"m":127}`,
	} {
		if status, reply := post(body); status != http.StatusOK {
			t.Errorf("create %s: %d %s, want 200", body, status, reply)
		}
	}
}
