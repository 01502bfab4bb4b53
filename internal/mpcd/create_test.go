package mpcd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
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
