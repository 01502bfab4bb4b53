package mpcd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"mpclogic/internal/policy"
)

// anchoredServer builds a server holding one join session per entry of
// sizes (n tuples per relation, 2n facts), named r0, r1, …, each on p
// servers and anchored by anchorQ, so a restart must restore every one
// warm. It returns the server and, per session, the request for its
// anchor query and the reply a restored server must give to it.
func anchoredServer(t testing.TB, p int, sizes ...int) (*Server, [][2][]byte) {
	t.Helper()
	s := New(Config{})
	h := s.Handler()
	refs := make([][2][]byte, len(sizes))
	for i, n := range sizes {
		id := fmt.Sprintf("r%d", i)
		if _, aerr := s.createSession(&createRequest{ID: id, Generator: "join", N: n, P: p, Budget: 1 << 40}); aerr != nil {
			t.Fatal(aerr)
		}
		body, err := json.Marshal(queryRequest{Session: id, Query: anchorQ})
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{PathRepartitioned, PathReused} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
			if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"path":"`+path+`"`)) {
				t.Fatalf("%s: %d %.200s, want path %s", id, rec.Code, rec.Body, path)
			}
			refs[i] = [2][]byte{body, rec.Body.Bytes()}
		}
	}
	return s, refs
}

// ask asks s's handler one query and returns the status and body.
func ask(s *Server, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// TestParallelSnapshotIsDeterministic: saving and restoring fan out
// over sessions, and neither the bytes written nor the error reported
// may depend on how the goroutines are scheduled. One server saved
// under GOMAXPROCS 1 and under 4 writes a byte-identical file; a
// snapshot with two damaged session records fails on the earlier of
// them in file order every time, though the later one, a far smaller
// record, is usually found damaged first. Each damage is found only
// once the whole record is decoded: a flipped trailing CRC, and a p the
// fragments do not match.
func TestParallelSnapshotIsDeterministic(t *testing.T) {
	s, _ := anchoredServer(t, 8, 3000, 40, 900, 10, 2000, 300)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var saved [2][]byte
	for i, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		dir := t.TempDir()
		if err := s.SaveSnapshot(dir); err != nil {
			t.Fatalf("save under GOMAXPROCS %d: %v", procs, err)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
			t.Fatalf("save under GOMAXPROCS %d left %d files (err %v), want one", procs, len(entries), err)
		}
		saved[i], _ = snapshotRecords(t, dir)
	}
	if !bytes.Equal(saved[0], saved[1]) {
		t.Fatal("the snapshot file differs between saves under GOMAXPROCS 1 and 4")
	}

	dir := t.TempDir()
	if err := s.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	data, spans := snapshotRecords(t, dir)
	if len(spans) != 7 {
		t.Fatalf("the snapshot holds %d records, want a header and 6 sessions", len(spans))
	}
	damages := []struct {
		name, want string
		damage     func(rec []byte) []byte
	}{
		{"trailing CRC", "record 1:", func(rec []byte) []byte {
			rec[len(rec)-1] ^= 0xff
			return rec
		}},
		{"p", "session r0 ", func(rec []byte) []byte {
			store, err := policy.DecodeImage(rec[8:])
			if err != nil {
				t.Fatal(err)
			}
			var sm sessionManifest
			if err := json.Unmarshal(store.Meta(), &sm); err != nil {
				t.Fatal(err)
			}
			sm.P--
			rec, err = snapshotRecord(&sm, store)
			if err != nil {
				t.Fatal(err)
			}
			return rec
		}},
	}
	for _, d := range damages {
		var records [][]byte
		for i, span := range spans {
			rec := append([]byte(nil), data[span[0]:span[1]]...)
			if i == 1 || i == 4 { // r0 and r3
				rec = d.damage(rec)
			}
			records = append(records, rec)
		}
		if err := policy.WriteLog(filepath.Join(dir, manifestName), records...); err != nil {
			t.Fatal(err)
		}
		for try := 0; try < 20; try++ {
			_, err := LoadSnapshot(dir, Config{})
			if err == nil || !strings.Contains(err.Error(), d.want) {
				t.Fatalf("%s damaged, try %d: LoadSnapshot says %v, want %q, r0's error, the first damaged record in file order", d.name, try, err, d.want)
			}
		}
	}
}

// TestLoadSnapshotTwiceIsTwoServers: a restored server owns the
// fragments it adopted, so two restores of one directory share none —
// each decoded its own images — and a repartition on one leaves the
// other answering byte for byte as a third, untouched restore does.
func TestLoadSnapshotTwiceIsTwoServers(t *testing.T) {
	s, refs := anchoredServer(t, 4, 200, 50)
	dir := t.TempDir()
	if err := s.SaveSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	var restored [3]*Server
	for i := range restored {
		var err error
		if restored[i], err = LoadSnapshot(dir, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"r0", "r1"} {
		a, b := restored[0].sessions[id].cluster, restored[1].sessions[id].cluster
		for i := 0; i < a.P(); i++ {
			if a.Server(i) == b.Server(i) {
				t.Fatalf("%s: two restores share server %d's fragment", id, i)
			}
		}
	}
	covered, err := json.Marshal(queryRequest{Session: "r0", Query: coveredQ1})
	if err != nil {
		t.Fatal(err)
	}
	uncovered, err := json.Marshal(queryRequest{Session: "r0", Query: uncoveredQ})
	if err != nil {
		t.Fatal(err)
	}
	if status, raw := ask(restored[0], uncovered); status != http.StatusOK || !bytes.Contains(raw, []byte(`"path":"repartitioned"`)) {
		t.Fatalf("the repartition on the first restore: %d %.200s", status, raw)
	}
	if _, raw := ask(restored[0], covered); !bytes.Contains(raw, []byte(`"path":"repartitioned"`)) {
		t.Fatalf("the first restore still answers from the anchor's fragments: %.200s", raw)
	}
	_, want := ask(restored[2], covered)
	if _, got := ask(restored[1], covered); !bytes.Equal(got, want) {
		t.Fatalf("the second restore's reply moved with the first's repartition:\n  got  %.300s\n  want %.300s", got, want)
	}
	for i, ref := range refs {
		if _, got := ask(restored[1], ref[0]); !bytes.Equal(got, ref[1]) {
			t.Fatalf("r%d: the second restore's anchor reply differs from the saved server's", i)
		}
	}
}

// BenchmarkRestart is serve_restart's op with no socket: SaveSnapshot,
// LoadSnapshot and the first byte-checked reply from the restored
// server, on four anchored 40 000-fact sessions on 8 servers. The op
// allocates megabytes in a few thousand objects, so allocs/op is
// counted with the collector off (ownAllocs).
func BenchmarkRestart(b *testing.B) {
	s, refs := anchoredServer(b, 8, 20000, 20000, 20000, 20000)
	dir := b.TempDir()
	op := func(i int) {
		if err := s.SaveSnapshot(dir); err != nil {
			b.Fatal(err)
		}
		next, err := LoadSnapshot(dir, Config{})
		if err != nil {
			b.Fatal(err)
		}
		ref := refs[i%len(refs)]
		if status, got := ask(next, ref[0]); status != http.StatusOK || !bytes.Equal(got, ref[1]) {
			b.Fatalf("the first reply after restart differs: %d %.200s", status, got)
		}
		s = next
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	ownAllocs(b, op)
}

// ownAllocs reports op's allocation count as allocs/op: the least
// Mallocs delta over four calls with the collector off, so the few
// objects the runtime allocates after a GC cycle never land in it (see
// the root package's reportOwnAllocs).
func ownAllocs(b *testing.B, op func(int)) {
	b.StopTimer()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := uint64(math.MaxUint64)
	for i := 0; i < 4; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op(i)
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	b.ReportMetric(float64(least), "allocs/op")
}
