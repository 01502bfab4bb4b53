package mpcd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// writeManifest lands m in dir through the snapshot writer's own path,
// so a hand-built manifest differs from a real one only in what it says.
func writeManifest(t *testing.T, dir string, m manifest) {
	t.Helper()
	raw, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := policy.SaveStore(filepath.Join(dir, manifestName), policy.NewStableStore(nil).WithMeta(raw)); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSnapshotRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{})
	seedSessions(t, ts.URL)
	if err := s.SaveSnapshot(dir); err != nil {
		t.Fatalf("save: %v", err)
	}

	// Flip one byte in a fragment image: the CRC must catch it.
	storePath := filepath.Join(dir, "session-ck1.1.store")
	raw, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatalf("read store: %v", err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(storePath, raw, 0o644); err != nil {
		t.Fatalf("corrupt store: %v", err)
	}
	if _, err := LoadSnapshot(dir, Config{}); err == nil {
		t.Fatal("LoadSnapshot accepted a corrupted fragment image")
	}

	// A session image the manifest names is missing: the snapshot is
	// there and broken, which is not "no snapshot".
	if err := os.Remove(storePath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(dir, Config{}); err == nil || errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("LoadSnapshot with a session image missing: %v, want a hard error", err)
	}

	// Missing manifest: the one case that is ErrNoSnapshot.
	if _, err := LoadSnapshot(t.TempDir(), Config{}); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("LoadSnapshot of an empty directory: %v, want ErrNoSnapshot", err)
	}

	// A manifest from before the manifest was an image (plain JSON under
	// the same name) fails loudly; it does not look like an empty dir.
	dir1 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir1, manifestName), []byte(`{"version": 1, "seed": 1}`), 0o644); err != nil {
		t.Fatalf("write manifest: %v", err)
	}
	if _, err := LoadSnapshot(dir1, Config{}); err == nil || errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("LoadSnapshot of a version-1 JSON manifest: %v, want a hard error", err)
	}

	// Future manifest version.
	dir2 := t.TempDir()
	writeManifest(t, dir2, manifest{Version: 99})
	if _, err := LoadSnapshot(dir2, Config{}); err == nil {
		t.Fatal("LoadSnapshot accepted a future manifest version")
	}

	// Traversal in the manifest's store path stays inside the dir: a
	// perfectly good image one level up is not what the entry names.
	outer := t.TempDir()
	dir3 := filepath.Join(outer, "snap")
	if err := os.Mkdir(dir3, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := policy.SaveStore(filepath.Join(outer, "outside.store"), mpc.NewCluster(8).Checkpoint().Store()); err != nil {
		t.Fatal(err)
	}
	writeManifest(t, dir3, manifest{Version: snapshotVersion, Seed: 1, Sessions: []sessionManifest{{SessionStatus: SessionStatus{Session: "x", P: 8}, Store: "../outside.store"}}})
	if _, err := LoadSnapshot(dir3, Config{}); err == nil {
		t.Fatal("LoadSnapshot followed a traversal store path")
	}

	// The same session named twice.
	dir4 := t.TempDir()
	if err := policy.SaveStore(filepath.Join(dir4, "session-x.store"), mpc.NewCluster(8).Checkpoint().Store()); err != nil {
		t.Fatal(err)
	}
	twice := sessionManifest{SessionStatus: SessionStatus{Session: "x", P: 8}, Store: "session-x.store"}
	writeManifest(t, dir4, manifest{Version: snapshotVersion, Seed: 1, Sessions: []sessionManifest{twice}})
	if _, err := LoadSnapshot(dir4, Config{}); err != nil {
		t.Fatalf("a hand-built manifest naming one good image does not load: %v", err)
	}
	writeManifest(t, dir4, manifest{Version: snapshotVersion, Seed: 1, Sessions: []sessionManifest{twice, twice}})
	if _, err := LoadSnapshot(dir4, Config{}); err == nil {
		t.Fatal("LoadSnapshot accepted a manifest naming a session twice")
	}
}

// TestSnapshotDirForgetsDeletedSessions: a snapshot directory holds the
// last snapshot and nothing of the ones before it — the previous
// generation's images, the image of a session deleted since, and a
// temporary a crashed writer left, are gone once the new manifest has
// landed; a file that is not the writer's stays; and what is left
// restores byte-identically.
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
	for _, stray := range []string{"session-b.store" + policy.TempSuffix, manifestName + policy.TempSuffix, "notes.txt"} {
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
	if got, want := fmt.Sprint(names), fmt.Sprint([]string{manifestName, "notes.txt", "session-b.2.store"}); got != want {
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
		t.Fatalf("load after the sweep: %v", err)
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
// large files, as policy's FuzzStoreImage samples) of every file of a
// saved snapshot — the manifest with a non-empty dict, an anchor and a
// partly spent budget, and both session images — makes LoadSnapshot
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
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 3 {
		t.Fatalf("snapshot directory has %d entries (err %v), want a manifest and two session images", len(entries), err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		stride := 1
		if nbits := len(img) * 8; nbits > 2048 {
			stride = nbits / 2048
		}
		for bitpos := 0; bitpos < len(img)*8; bitpos += stride {
			mut := append([]byte(nil), img...)
			mut[bitpos/8] ^= 1 << (bitpos % 8)
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadSnapshot(dir, Config{}); err == nil {
				t.Fatalf("LoadSnapshot built a server from %s with bit %d flipped", e.Name(), bitpos)
			}
		}
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
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
