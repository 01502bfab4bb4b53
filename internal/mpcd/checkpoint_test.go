package mpcd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpclogic/internal/mpc"
	"mpclogic/internal/policy"
)

// seedSessions primes a server with two sessions and a warm anchor in
// the first, returning the responses a resumed server must match.
func seedSessions(t *testing.T, url string) []QueryResponse {
	t.Helper()
	do(t, "POST", url+"/v1/sessions", createRequest{ID: "ck1", Facts: transferFacts(), Budget: 1 << 10})
	do(t, "POST", url+"/v1/sessions", createRequest{ID: "ck2", Generator: "cycle", N: 32})
	return []QueryResponse{
		query(t, url, "ck1", anchorQ),
		query(t, url, "ck2", "L(x, z) :- E(x, y), E(y, z)"),
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{})
	seedSessions(t, ts1.URL)

	statusBefore := make(map[string]string)
	for _, id := range []string{"ck1", "ck2"} {
		_, raw := do(t, "GET", ts1.URL+"/v1/sessions/"+id, nil)
		statusBefore[id] = string(raw)
	}

	if err := s1.SaveSnapshot(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	// The drained server rejects everything typed.
	status, raw := do(t, "POST", ts1.URL+"/v1/query", queryRequest{Session: "ck1", Query: anchorQ})
	if status != http.StatusServiceUnavailable || errCode(t, raw) != CodeDraining {
		t.Fatalf("post-snapshot query: %d %s", status, raw)
	}

	s2, err := LoadSnapshot(dir, Config{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	// Session status survives byte-for-byte: ledger, counters, anchor.
	for id, want := range statusBefore {
		_, raw := do(t, "GET", ts2.URL+"/v1/sessions/"+id, nil)
		if string(raw) != want {
			t.Fatalf("session %s status drifted across restart:\n  before %s\n  after  %s", id, want, raw)
		}
	}
	if s2.Statz().RestoredSessions != 2 {
		t.Fatalf("statz: %+v", s2.Statz())
	}

	// The restored anchor is warm: a covered query reuses immediately,
	// with zero communication, on the restored fragments.
	qr := query(t, ts2.URL, "ck1", coveredQ3)
	if qr.Path != PathReused || qr.Comm != 0 {
		t.Fatalf("restored session lost its warm distribution: %+v", qr)
	}
}

// TestResumeByteIdentity is the kill-and-resume invariant in-process:
// snapshot mid-script, resume in a fresh server, and the remaining
// responses are byte-identical to an uninterrupted reference run.
func TestResumeByteIdentity(t *testing.T) {
	script := []string{coveredQ1, uncoveredQ, anchorQ, coveredQ2}

	// Reference: one server runs setup + script straight through.
	_, tsRef := newTestServer(t, Config{})
	seedSessions(t, tsRef.URL)
	var want []string
	for _, q := range script {
		_, raw := do(t, "POST", tsRef.URL+"/v1/query", queryRequest{Session: "ck1", Query: q})
		want = append(want, string(raw))
	}

	// Interrupted: setup, snapshot, restart, then the same script.
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{})
	seedSessions(t, ts1.URL)
	if err := s1.SaveSnapshot(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	s2, err := LoadSnapshot(dir, Config{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	for i, q := range script {
		_, raw := do(t, "POST", ts2.URL+"/v1/query", queryRequest{Session: "ck1", Query: q})
		if string(raw) != want[i] {
			t.Fatalf("query %d (%q) diverged after resume:\n  want %s\n  got  %s", i, q, want[i], raw)
		}
	}
}

func TestCheckpointEndpoint(t *testing.T) {
	// Without a configured directory the endpoint refuses typed.
	_, tsNo := newTestServer(t, Config{})
	status, raw := do(t, "POST", tsNo.URL+"/v1/checkpoint", nil)
	if status != http.StatusConflict || errCode(t, raw) != CodeConflict {
		t.Fatalf("checkpoint without dir: %d %s", status, raw)
	}

	dir := t.TempDir()
	_, ts := newTestServer(t, Config{SnapshotDir: dir})
	seedSessions(t, ts.URL)
	status, raw = do(t, "POST", ts.URL+"/v1/checkpoint", nil)
	if status != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", status, raw)
	}
	var cr checkpointResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if cr.Dir != dir || cr.Sessions != 2 {
		t.Fatalf("checkpoint response %+v", cr)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("manifest missing: %v", err)
	}
	if _, err := LoadSnapshot(dir, Config{}); err != nil {
		t.Fatalf("endpoint snapshot does not load: %v", err)
	}
}

// writeSnapshot lands a snapshot of the given version in dir, one
// session record per entry of sessions, each over p = 8 empty
// fragments, through the snapshot writer's own record path, so a
// hand-built snapshot differs from a real one only in what it says.
func writeSnapshot(t *testing.T, dir string, version int, sessions ...sessionManifest) {
	t.Helper()
	hdr := snapshotHeader{Version: version, Seed: 1, Sessions: len(sessions)}
	rec, err := snapshotRecord(&hdr, policy.NewStableStore(nil))
	if err != nil {
		t.Fatal(err)
	}
	records := [][]byte{rec}
	for i := range sessions {
		rec, err := snapshotRecord(&sessions[i], mpc.NewCluster(8).Checkpoint().Store())
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	if err := policy.WriteLog(filepath.Join(dir, manifestName), records...); err != nil {
		t.Fatal(err)
	}
}

// snapshotRecords reads dir's snapshot file and returns its bytes and
// each record's span in them, header included.
func snapshotRecords(t *testing.T, dir string) (data []byte, spans [][2]int) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	imgs, valid, err := policy.FrameLog(data)
	if err != nil || valid != len(data) {
		t.Fatalf("the snapshot file is not whole records: %d of %d bytes (err %v)", valid, len(data), err)
	}
	off := 0
	for _, img := range imgs {
		spans = append(spans, [2]int{off, off + 8 + len(img)})
		off = spans[len(spans)-1][1]
	}
	return data, spans
}

// session is a session record's meta for a hand-built snapshot.
func session(id string, p int, dict ...string) sessionManifest {
	return sessionManifest{SessionStatus: SessionStatus{Session: id, P: p}, Dict: dict}
}

func TestLoadSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{})
	seedSessions(t, ts.URL)
	if err := s.SaveSnapshot(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	data, spans := snapshotRecords(t, dir)
	if len(spans) != 3 {
		t.Fatalf("the snapshot holds %d records, want a header and two sessions", len(spans))
	}
	path := filepath.Join(dir, manifestName)
	hard := func(what string, file []byte) {
		t.Helper()
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(dir, Config{}); err == nil || errors.Is(err, ErrNoSnapshot) {
			t.Fatalf("LoadSnapshot of %s: %v, want a hard error", what, err)
		}
	}

	// Flip one byte in a session record: the CRC must catch it.
	flipped := append([]byte(nil), data...)
	flipped[(spans[1][0]+spans[1][1])/2] ^= 0xff
	hard("a flipped record byte", flipped)
	// A file cut short, mid-record or at a record's end, or running on
	// past its last record, is there and broken, which is not "no
	// snapshot".
	hard("a truncated file", data[:len(data)-1])
	hard("a file without its last record", data[:spans[2][0]])
	hard("a file with a record dropped", append(append([]byte(nil), data[:spans[1][0]]...), data[spans[1][1]:]...))
	hard("an empty file", nil)
	hard("a file with bytes past its last record", append(append([]byte(nil), data...), 0, 0, 0))

	// Missing snapshot file: the one case that is ErrNoSnapshot.
	if _, err := LoadSnapshot(t.TempDir(), Config{}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("LoadSnapshot of an empty directory: %v, want ErrNoSnapshot", err)
	}

	// A manifest from before the snapshot was an image (plain JSON under
	// the same name), and one from before it was a log (a single store
	// image whose meta listed the sessions), fail loudly; neither looks
	// like an empty dir.
	hard("a version-1 JSON manifest", []byte(`{"version": 1, "seed": 1}`))
	var v2 bytes.Buffer
	if err := policy.EncodeStore(&v2, policy.NewStableStore(nil).WithMeta([]byte(`{"version":2,"seed":1,"next_id":0,"sessions":null}`))); err != nil {
		t.Fatal(err)
	}
	hard("a version-2 single-image manifest", v2.Bytes())

	// Future snapshot version.
	dir2 := t.TempDir()
	writeSnapshot(t, dir2, 99)
	if _, err := LoadSnapshot(dir2, Config{}); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("LoadSnapshot of a future version: %v, want the version's error", err)
	}

	// The same session listed twice, and two sessions out of order.
	dir3 := t.TempDir()
	writeSnapshot(t, dir3, snapshotVersion, session("x", 8), session("y", 8))
	if _, err := LoadSnapshot(dir3, Config{}); err != nil {
		t.Fatalf("a hand-built snapshot of two good sessions does not load: %v", err)
	}
	for _, ids := range [][2]string{{"x", "x"}, {"y", "x"}} {
		writeSnapshot(t, dir3, snapshotVersion, session(ids[0], 8), session(ids[1], 8))
		if _, err := LoadSnapshot(dir3, Config{}); err == nil || !strings.Contains(err.Error(), "strictly increasing") {
			t.Fatalf("LoadSnapshot of sessions %v: %v, want the order's error", ids, err)
		}
	}

	// A session on no servers, or on more than a create may ask for, is
	// refused with an error: a CRC-valid image of zero nodes under p = 0
	// once panicked building the session's cluster.
	dir4 := t.TempDir()
	for _, p := range []int{0, -1, maxSessionP + 1} {
		writeSnapshot(t, dir4, snapshotVersion, session("z", p))
		if _, err := LoadSnapshot(dir4, Config{}); err == nil || !strings.Contains(err.Error(), "outside 1..") {
			t.Fatalf("LoadSnapshot of a session with p = %d: %v, want the p bound's error", p, err)
		}
	}

	// A dict naming one value twice would restore b as value 1 where the
	// saved server interned it as 2, and the restored server would answer
	// in other bytes: refused.
	dir5 := t.TempDir()
	writeSnapshot(t, dir5, snapshotVersion, session("d", 8, "a", "b"))
	if _, err := LoadSnapshot(dir5, Config{}); err != nil {
		t.Fatalf("a hand-built snapshot with a dict does not load: %v", err)
	}
	writeSnapshot(t, dir5, snapshotVersion, session("d", 8, "a", "a", "b"))
	if _, err := LoadSnapshot(dir5, Config{}); err == nil || !strings.Contains(err.Error(), "distinct") {
		t.Fatalf("LoadSnapshot of a dict naming a value twice: %v, want the dict's error", err)
	}
}

// TestRestoreChecksFactCount: a session record whose fact count is not
// what its fragments hold is refused at load, naming the session, both
// before an anchor (every fact of the round-robin layout) and under one
// (each fact where its owner holds it). Loaded, it would turn every
// repartition and gather of the session into a 500.
func TestRestoreChecksFactCount(t *testing.T) {
	for _, anchored := range []bool{false, true} {
		s := New(Config{})
		if _, aerr := s.createSession(&createRequest{ID: "fc", Facts: transferFacts(), Budget: 1 << 10}); aerr != nil {
			t.Fatal(aerr)
		}
		if anchored {
			body, err := json.Marshal(queryRequest{Session: "fc", Query: anchorQ})
			if err != nil {
				t.Fatal(err)
			}
			if status, raw := ask(s, body); status != http.StatusOK {
				t.Fatalf("anchoring: %d %s", status, raw)
			}
		}
		dir := t.TempDir()
		if err := s.SaveSnapshot(dir); err != nil {
			t.Fatalf("save: %v", err)
		}
		if _, err := LoadSnapshot(dir, Config{}); err != nil {
			t.Fatalf("anchored=%v: the saved snapshot does not load: %v", anchored, err)
		}
		data, spans := snapshotRecords(t, dir)
		imgs, _, err := policy.FrameLog(data)
		if err != nil {
			t.Fatal(err)
		}
		store, err := policy.DecodeImage(imgs[1])
		if err != nil {
			t.Fatal(err)
		}
		var sm sessionManifest
		if err := json.Unmarshal(store.Meta(), &sm); err != nil {
			t.Fatal(err)
		}
		if sm.Facts != len(transferFacts()) {
			t.Fatalf("anchored=%v: the record says %d facts, want %d", anchored, sm.Facts, len(transferFacts()))
		}
		sm.Facts++
		rec, err := snapshotRecord(&sm, store)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), append(data[:spans[1][0]:spans[1][0]], rec...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(dir, Config{}); err == nil || !strings.Contains(err.Error(), "session fc holds 6 facts, its record says 7") {
			t.Fatalf("anchored=%v: LoadSnapshot of a record one fact over its fragments: %v, want the count's error", anchored, err)
		}
	}
}

// TestSnapshotDirForgetsDeletedSessions: a snapshot directory holds the
// last snapshot and nothing of the ones before it — the session deleted
// since is gone, and a temporary a crashed writer left is truncated and
// renamed by the next save; a file that is not the writer's stays; and
// what is left restores byte-identically.
func TestSnapshotDirForgetsDeletedSessions(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{})
	do(t, "POST", ts1.URL+"/v1/sessions", createRequest{ID: "a", Generator: "cycle", N: 16})
	do(t, "POST", ts1.URL+"/v1/sessions", createRequest{ID: "b", Facts: transferFacts()})
	query(t, ts1.URL, "b", anchorQ)
	if err := s1.SaveSnapshot(dir); err != nil {
		t.Fatalf("first save: %v", err)
	}

	s2, err := LoadSnapshot(dir, Config{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if status, raw := do(t, "DELETE", ts2.URL+"/v1/sessions/a", nil); status != http.StatusOK {
		t.Fatalf("delete: %d %s", status, raw)
	}
	_, want := do(t, "POST", ts2.URL+"/v1/query", queryRequest{Session: "b", Query: coveredQ3})
	for _, stray := range []string{manifestName + policy.TempSuffix, "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, stray), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.SaveSnapshot(dir); err != nil {
		t.Fatalf("second save: %v", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got, want := fmt.Sprint(names), fmt.Sprint([]string{manifestName, "notes.txt"}); got != want {
		t.Fatalf("snapshot directory holds %s, want %s", got, want)
	}

	// Reference: the same history on a server that never went down.
	_, tsRef := newTestServer(t, Config{})
	do(t, "POST", tsRef.URL+"/v1/sessions", createRequest{ID: "b", Facts: transferFacts()})
	query(t, tsRef.URL, "b", anchorQ)
	_, wantRef := do(t, "POST", tsRef.URL+"/v1/query", queryRequest{Session: "b", Query: coveredQ3})
	if string(want) != string(wantRef) {
		t.Fatalf("restored reply differs from the never-restarted server's:\n  got  %s\n  want %s", want, wantRef)
	}
	s3, err := LoadSnapshot(dir, Config{})
	if err != nil {
		t.Fatalf("load after the second save: %v", err)
	}
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	if s3.Sessions() != 1 {
		t.Fatalf("%d sessions restored, want b alone", s3.Sessions())
	}
	_, got := do(t, "POST", ts3.URL+"/v1/query", queryRequest{Session: "b", Query: coveredQ3})
	_, wantNext := do(t, "POST", tsRef.URL+"/v1/query", queryRequest{Session: "b", Query: coveredQ3})
	if string(got) != string(wantNext) {
		t.Fatalf("b's reply after the second restart diverged:\n  got  %s\n  want %s", got, wantNext)
	}
}

// TestTornSnapshotRestoresThePreviousOne: a snapshot cut short after
// its session images, before its manifest, leaves the previous snapshot
// whole — its images are not the ones the cut snapshot wrote — so the
// restart answers the covered query from the distribution the landed
// manifest's anchor describes, and the next repartition routes exactly
// the session's facts. (Writing images over the names the landed
// manifest held once restored the new fragments under the old anchor:
// the covered query answered count 0, the repartition a 500.)
func TestTornSnapshotRestoresThePreviousOne(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{})
	seedSessions(t, ts1.URL)
	want := query(t, ts1.URL, "ck1", coveredQ1)
	if want.Path != PathReused || want.Count != 3 {
		t.Fatalf("the reference answer is %+v, want 3 facts reused", want)
	}
	if err := s1.SaveSnapshot(dir); err != nil {
		t.Fatalf("save: %v", err)
	}

	s2, err := LoadSnapshot(dir, Config{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	query(t, ts2.URL, "ck1", uncoveredQ) // ck1's fragments move to another grid
	// The second snapshot dies between its images and its manifest: a
	// directory where the manifest's temporary goes fails that write.
	blocker := filepath.Join(dir, manifestName+policy.TempSuffix)
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s2.SaveSnapshot(dir); err == nil {
		t.Fatal("a snapshot landed its manifest over a directory")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}

	s3, err := LoadSnapshot(dir, Config{})
	if err != nil {
		t.Fatalf("load after the torn snapshot: %v", err)
	}
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	got := query(t, ts3.URL, "ck1", coveredQ1)
	if got.Path != PathReused || got.Count != want.Count || fmt.Sprint(got.Output) != fmt.Sprint(want.Output) {
		t.Fatalf("after the torn snapshot the covered query answers %+v, want the previous snapshot's %+v", got, want)
	}
	if status, raw := do(t, "POST", ts3.URL+"/v1/query", queryRequest{Session: "ck1", Query: uncoveredQ}); status != http.StatusOK {
		t.Fatalf("the repartition after the torn snapshot: %d %s", status, raw)
	}
}

// TestSnapshotBitFlipLaw: every single-bit mutation (fixed stride on
// large records, as policy's FuzzStoreImage samples) of each record of a
// saved snapshot file — the header, a session record with a non-empty dict, an anchor
// and a partly spent budget, and another session's — makes LoadSnapshot
// return an error, never a server: no byte a restart trusts is outside
// a checksum.
func TestSnapshotBitFlipLaw(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{})
	seedSessions(t, ts.URL)
	if err := s.SaveSnapshot(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	restored, err := LoadSnapshot(dir, Config{})
	if err != nil {
		t.Fatalf("the undamaged snapshot does not load: %v", err)
	}
	ck1, aerr := restored.session("ck1")
	if aerr != nil || ck1.dict.Len() == 0 || ck1.anchor == nil || ck1.budgetSpent == 0 || ck1.budgetSpent >= ck1.budgetTotal {
		t.Fatalf("the snapshot under test lacks a dict, an anchor or a partly spent budget: %+v (err %v)", ck1, aerr)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("snapshot directory has %d entries (err %v), want the snapshot file alone", len(entries), err)
	}
	img, spans := snapshotRecords(t, dir)
	if len(spans) != 3 {
		t.Fatalf("the snapshot holds %d records, want a header and two sessions", len(spans))
	}
	path := filepath.Join(dir, manifestName)
	for i, span := range spans {
		stride := 1
		if nbits := (span[1] - span[0]) * 8; nbits > 2048 {
			stride = nbits / 2048
		}
		for bitpos := span[0] * 8; bitpos < span[1]*8; bitpos += stride {
			mut := append([]byte(nil), img...)
			mut[bitpos/8] ^= 1 << (bitpos % 8)
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadSnapshot(dir, Config{}); err == nil {
				t.Fatalf("LoadSnapshot built a server with bit %d (in record %d) flipped", bitpos, i)
			}
		}
	}
}

// TestStatzReportsWhatTheScriptDrives: /v1/statz is the daemon's only
// observability surface, so a counter the server bumps must come out of
// it. A script that creates, repartitions, reuses, gathers, is refused
// on budget, deletes, checkpoints and restores must leave every counter
// it drives non-zero in the served JSON, checkpointed_sessions among
// them.
func TestStatzReportsWhatTheScriptDrives(t *testing.T) {
	statz := func(url string) map[string]any {
		_, raw := do(t, "GET", url+"/v1/statz", nil)
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("decode statz %s: %v", raw, err)
		}
		return m
	}
	nonZero := func(who string, m map[string]any, keys ...string) {
		t.Helper()
		for _, k := range keys {
			if v, ok := m[k]; !ok || v == float64(0) || v == false {
				t.Errorf("%s: statz[%q] = %v (present: %v), want non-zero", who, k, v, ok)
			}
		}
	}

	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{})
	seedSessions(t, ts1.URL) // two creates, two repartitions, plan and cover misses
	for i := 0; i < 2; i++ { // reused; the second time on a cached plan and cover verdict
		query(t, ts1.URL, "ck1", coveredQ1)
	}
	do(t, "POST", ts1.URL+"/v1/query", queryRequest{ // gathered
		Session: "ck2", Lang: LangDatalog, Query: "T(x, y) :- E(x, y)", Out: "T"})
	do(t, "POST", ts1.URL+"/v1/query", queryRequest{ // refused on budget
		Session: "ck1", Query: uncoveredQ, Budget: 1})
	do(t, "POST", ts1.URL+"/v1/sessions", createRequest{ID: "gone", Facts: []string{"R(a, b)"}})
	do(t, "DELETE", ts1.URL+"/v1/sessions/gone", nil)
	if err := s1.SaveSnapshot(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	do(t, "POST", ts1.URL+"/v1/query", queryRequest{ // refused: draining
		Session: "ck1", Query: anchorQ})
	nonZero("checkpointed server", statz(ts1.URL),
		"sessions", "draining", "admitted", "reused", "repartitioned", "gathered",
		"rejected_budget", "rejected_draining", "plan_hits", "plan_misses",
		"cover_hits", "cover_misses", "comm_total", "sessions_created",
		"sessions_destroyed", "checkpointed_sessions")

	s2, err := LoadSnapshot(dir, Config{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	query(t, ts2.URL, "ck1", coveredQ2)
	nonZero("restored server", statz(ts2.URL), "sessions", "restored_sessions", "admitted", "reused")
}
