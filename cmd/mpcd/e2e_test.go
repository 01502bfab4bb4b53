package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// mpcdBin is the daemon under test, built once in TestMain: the e2e
// suite forks real processes and talks to them over loopback HTTP, so
// it covers the actual listen/serve/signal/snapshot machinery.
var mpcdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mpcd-e2e-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: temp dir: %v\n", err)
		os.Exit(1)
	}
	mpcdBin = filepath.Join(dir, "mpcd")
	if out, err := exec.Command("go", "build", "-o", mpcdBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: building mpcd: %v\n%s", err, out)
		os.RemoveAll(dir) // best-effort cleanup before exiting
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir) // best-effort cleanup before exiting
	os.Exit(code)
}

// daemon is one running mpcd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	done chan error
}

// startDaemon forks the binary on a kernel-chosen port and waits for
// the listen line on stdout.
func startDaemon(t *testing.T, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(mpcdBin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting mpcd: %v", err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		_ = cmd.Process.Kill() //lint:allow error-discard the process is already broken
		t.Fatalf("reading listen line: %v", err)
	}
	const prefix = "mpcd listening on "
	if !strings.HasPrefix(line, prefix) {
		_ = cmd.Process.Kill() //lint:allow error-discard the process is already broken
		t.Fatalf("unexpected first line %q", line)
	}
	d := &daemon{cmd: cmd, base: strings.TrimSpace(strings.TrimPrefix(line, prefix)), done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	t.Cleanup(func() {
		_ = cmd.Process.Kill() //lint:allow error-discard best-effort teardown for already-exited daemons
		<-d.done
	})
	return d
}

// stop SIGTERMs the daemon and waits for a clean exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signaling mpcd: %v", err)
	}
	err := <-d.done
	d.done <- err // keep the cleanup's receive from blocking
	if err != nil {
		t.Fatalf("mpcd exit: %v", err)
	}
}

// call posts one JSON request to the daemon.
func (d *daemon) call(t *testing.T, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, raw
}

func (d *daemon) mustCall(t *testing.T, method, path string, body any) []byte {
	t.Helper()
	status, raw := d.call(t, method, path, body)
	if status != http.StatusOK {
		t.Fatalf("%s %s: %d %s", method, path, status, raw)
	}
	return raw
}

type jmap = map[string]any

var e2eFacts = []string{"R(a, b)", "R(b, c)", "R(c, d)", "S(b, u)", "S(c, v)", "S(d, w)"}

const (
	e2eAnchor  = "A(x, z) :- R(x, y), S(y, z)"
	e2eCovered = "D(x, y) :- R(x, y)"
)

// TestE2ESignalAtTheListenLine SIGTERMs the daemon the moment its
// listen line is read, 20 times, with and without a snapshot directory:
// the handler is installed before the line is printed, so every one of
// them drains and exits cleanly instead of dying by the signal's
// default action.
func TestE2ESignalAtTheListenLine(t *testing.T) {
	dir := t.TempDir()
	for i := range 20 {
		var extra []string
		if i%2 == 1 {
			extra = []string{"-checkpoint-dir", dir}
		}
		startDaemon(t, extra...).stop(t)
	}
}

// TestE2EServeQueryDrain is the basic lifecycle: start, create, query
// all three paths, drain, observe typed rejections, clean exit.
func TestE2EServeQueryDrain(t *testing.T) {
	d := startDaemon(t)
	d.mustCall(t, "POST", "/v1/sessions", jmap{"id": "e1", "facts": e2eFacts})

	var qr struct {
		Path string `json:"path"`
		Comm int    `json:"comm"`
	}
	if err := json.Unmarshal(d.mustCall(t, "POST", "/v1/query", jmap{"session": "e1", "query": e2eAnchor}), &qr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if qr.Path != "repartitioned" {
		t.Fatalf("first query path %q", qr.Path)
	}
	if err := json.Unmarshal(d.mustCall(t, "POST", "/v1/query", jmap{"session": "e1", "query": e2eCovered}), &qr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if qr.Path != "reused" || qr.Comm != 0 {
		t.Fatalf("covered query over loopback: %+v", qr)
	}

	d.mustCall(t, "POST", "/v1/drain", nil)
	status, raw := d.call(t, "POST", "/v1/query", jmap{"session": "e1", "query": e2eAnchor})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("query after drain: %d %s", status, raw)
	}
	d.stop(t)
}

// TestE2EKillAndResume is the flagship invariant: run half a script,
// SIGTERM (drain + snapshot), restart on the snapshot, run the rest —
// and every post-restart response is byte-identical to an
// uninterrupted daemon's.
func TestE2EKillAndResume(t *testing.T) {
	setup := []jmap{
		{"id": "k1", "facts": e2eFacts, "budget": 1 << 10},
		{"id": "k2", "generator": "cycle", "n": 24},
	}
	firstHalf := []jmap{
		{"session": "k1", "query": e2eAnchor},
		{"session": "k2", "query": "L(x, z) :- E(x, y), E(y, z)"},
	}
	secondHalf := []jmap{
		{"session": "k1", "query": e2eCovered},                    // must reuse the restored distribution
		{"session": "k1", "query": "D(x, z) :- R(x, y), R(y, z)"}, // must repartition
		{"session": "k1", "query": e2eAnchor},                     // budget ledger must have survived
		{"session": "k2", "query": "T(x, y) :- E(x, y)", "lang": "datalog", "out": "T"},
	}

	// Reference: one uninterrupted daemon.
	ref := startDaemon(t)
	for _, c := range setup {
		ref.mustCall(t, "POST", "/v1/sessions", c)
	}
	for _, q := range firstHalf {
		ref.mustCall(t, "POST", "/v1/query", q)
	}
	var want [][]byte
	for _, q := range secondHalf {
		want = append(want, ref.mustCall(t, "POST", "/v1/query", q))
	}
	refStatus := ref.mustCall(t, "GET", "/v1/sessions/k1", nil)

	// Interrupted: same prefix, then SIGTERM → snapshot → restart.
	ckpt := t.TempDir()
	d1 := startDaemon(t, "-checkpoint-dir", ckpt)
	for _, c := range setup {
		d1.mustCall(t, "POST", "/v1/sessions", c)
	}
	for _, q := range firstHalf {
		d1.mustCall(t, "POST", "/v1/query", q)
	}
	d1.stop(t) // SIGTERM: drain, snapshot, exit 0

	d2 := startDaemon(t, "-checkpoint-dir", ckpt)
	for i, q := range secondHalf {
		got := d2.mustCall(t, "POST", "/v1/query", q)
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("post-restart response %d diverged:\n  want %s\n  got  %s", i, want[i], got)
		}
	}
	gotStatus := d2.mustCall(t, "GET", "/v1/sessions/k1", nil)
	if !bytes.Equal(gotStatus, refStatus) {
		t.Fatalf("session status diverged across restart:\n  want %s\n  got  %s", refStatus, gotStatus)
	}
	// The reused path must actually have fired post-restart.
	var st struct {
		Reused int `json:"reused"`
	}
	if err := json.Unmarshal(gotStatus, &st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if st.Reused == 0 {
		t.Fatal("no reuse after restart: the snapshot did not keep the distribution warm")
	}
	d2.stop(t)
}

// TestE2ELoadHarness points the real mpcload binary at a real mpcd over
// loopback and checks the run completes with a digest.
func TestE2ELoadHarness(t *testing.T) {
	d := startDaemon(t)
	out, err := exec.Command("go", "run", "mpclogic/cmd/mpcload",
		"-addr", d.base, "-sessions", "8", "-queries", "8", "-seed", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("mpcload: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("digest=")) {
		t.Fatalf("mpcload output missing digest:\n%s", out)
	}
	d.stop(t)
}
