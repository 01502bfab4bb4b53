package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"mpclogic/internal/mpcd"
	"mpclogic/internal/mpcd/loadgen"
)

// loopback serves an mpcd handler behind net/http on 127.0.0.1:0, in
// this process. The handler can be swapped, which is how a restarted
// server comes back on the same address.
type loopback struct {
	ts  *httptest.Server
	cur atomic.Pointer[http.Handler]
}

func newLoopback(h http.Handler) *loopback {
	l := &loopback{}
	l.swap(h)
	l.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*l.cur.Load()).ServeHTTP(w, r)
	}))
	return l
}

func (l *loopback) swap(h http.Handler) { l.cur.Store(&h) }

// close stops the listener and waits for the serving goroutines.
func (l *loopback) close() { l.ts.Close() }

// newClient returns a client that keeps up to conns keep-alive
// connections to l — one per goroutine that will share it.
func (l *loopback) newClient(conns int) *loadgen.HTTPClient {
	return &loadgen.HTTPClient{Base: l.ts.URL, C: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func closeClient(c *loadgen.HTTPClient) { c.C.CloseIdleConnections() }

// loggedOp is one request the loopback server has answered, kept so
// the twin server and the shadow can be brought to the same state.
type loggedOp struct {
	method, path string
	body         []byte
	status       int
	digest       [sha256.Size]byte
}

// backend is the traced run's API client. Until the twins are
// attached it drives the loopback server alone and logs every request.
// Afterwards every request goes three ways — the twin server through
// its handler, the loopback server over HTTP, the shadow pipeline —
// each under its own span, and the three replies must agree.
type backend struct {
	http     *loadgen.HTTPClient
	tr       *tracer
	log      []loggedOp
	untraced []float64 // ms per request while the loopback server ran alone
	handler  *loadgen.HandlerClient
	twin     *mpcd.Server
	sh       *shadow

	measuring  bool // requests are measured ops, not set-up
	flips      int  // fan-outs so far, for the alternation
	mismatches int
	firstErr   error
}

func (b *backend) fail(err error) {
	b.mismatches++
	if b.firstErr == nil {
		b.firstErr = err
	}
}

// Do implements loadgen.Client.
func (b *backend) Do(method, path string, body []byte) (int, []byte, error) {
	if b.handler == nil {
		status, raw, err := b.alone(method, path, body)
		if err != nil {
			return status, raw, err
		}
		b.log = append(b.log, loggedOp{method: method, path: path,
			body: append([]byte(nil), body...), status: status, digest: sha256.Sum256(raw)})
		return status, raw, nil
	}
	var status int
	var raw []byte
	var err error
	fan := func() {
		var hStatus int
		var hRaw []byte
		viaHandler := func() {
			b.tr.span("mpcd.handler", func() { hStatus, hRaw, _ = b.handler.Do(method, path, body) })
		}
		viaHTTP := func() {
			b.tr.span("mpcd.http", func() { status, raw, err = b.http.Do(method, path, body) })
		}
		// Whichever flavour goes second finds the caches warm, so the
		// order alternates and the bias cancels in the medians.
		if b.flips++; b.flips%2 == 0 {
			viaHandler()
			viaHTTP()
		} else {
			viaHTTP()
			viaHandler()
		}
		if err != nil {
			return
		}
		var rep shadowReply
		var serr error
		b.tr.span(shadowSpan, func() { rep, serr = b.sh.do(method, path, body) })
		switch {
		case serr != nil:
			b.fail(serr)
		case hStatus != status || !bytes.Equal(hRaw, raw):
			b.fail(fmt.Errorf("%s %s: handler answered %d, loopback %d, bodies differ", method, path, hStatus, status))
		default:
			if cerr := checkShadow(rep, status, raw); cerr != nil {
				b.fail(fmt.Errorf("%s %s %s: %w", method, path, body, cerr))
			}
		}
	}
	if b.measuring {
		b.tr.beginOp()
		b.tr.span(opSpan, fan)
		b.tr.endOp()
	} else {
		b.tr.span("setup", fan)
	}
	return status, raw, err
}

// alone sends one request to the loopback server only and keeps its
// latency: what the traced spans of the same requests are read against.
func (b *backend) alone(method, path string, body []byte) (int, []byte, error) {
	start := time.Now()
	status, raw, err := b.http.Do(method, path, body)
	if err == nil {
		b.untraced = append(b.untraced, ms(time.Since(start)))
	}
	return status, raw, err
}

// attachTwins replays the log onto a fresh twin server and the shadow,
// checking both against what the loopback server answered.
func (b *backend) attachTwins(twin *mpcd.Server, sh *shadow) error {
	h := &loadgen.HandlerClient{H: twin.Handler()}
	var err error
	b.tr.span("setup", func() {
		for _, op := range b.log {
			status, raw, _ := h.Do(op.method, op.path, op.body)
			if status != op.status || sha256.Sum256(raw) != op.digest {
				err = fmt.Errorf("twin diverged replaying %s %s: status %d, logged %d", op.method, op.path, status, op.status)
				return
			}
			rep, serr := sh.do(op.method, op.path, op.body)
			if serr == nil {
				serr = checkShadow(rep, status, raw)
			}
			if serr != nil {
				err = fmt.Errorf("shadow diverged replaying %s %s %s: %w", op.method, op.path, op.body, serr)
				return
			}
		}
	})
	if err != nil {
		return err
	}
	b.handler, b.twin, b.sh, b.log = h, twin, sh, nil
	return nil
}

// setTwin points the handler flavour at the twin's successor after a
// restart.
func (b *backend) setTwin(twin *mpcd.Server) {
	b.twin = twin
	b.handler.H = twin.Handler()
}

// checkShadow compares the shadow's prediction with a server reply:
// whole bodies for executed queries, status and typed code otherwise.
func checkShadow(rep shadowReply, status int, raw []byte) error {
	if rep.status != status {
		return fmt.Errorf("shadow predicted status %d, server answered %d %s", rep.status, status, clip(raw))
	}
	if rep.body != nil {
		if !bytes.Equal(rep.body, raw) {
			return fmt.Errorf("shadow body differs from the server's: %s vs %s", clip(rep.body), clip(raw))
		}
		return nil
	}
	var got struct {
		Code     string `json:"code"`
		Required int    `json:"required"`
		Facts    int    `json:"facts"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("undecodable server reply %s", clip(raw))
	}
	if got.Code != rep.code || got.Required != rep.required || (rep.facts > 0 && got.Facts != rep.facts) {
		return fmt.Errorf("shadow predicted code %q required %d facts %d, server answered %s",
			rep.code, rep.required, rep.facts, clip(raw))
	}
	return nil
}

// clip shortens a body for an error message.
func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}
