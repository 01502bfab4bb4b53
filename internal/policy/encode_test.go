package policy

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpclogic/internal/rel"
)

func storeSample() *StableStore {
	a := rel.NewInstance()
	a.Add(rel.NewFact("R", 1, 2))
	a.Add(rel.NewFact("S", 3))
	b := rel.NewInstance() // one empty fragment, a real shape after skewed placement
	c := rel.NewInstance()
	c.Add(rel.NewFact("R", -5, 9))
	return NewStableStore([]*rel.Instance{a, b, c}).WithMeta([]byte("cursor"))
}

// TestStoreEncodeRoundTrip: a decoded store must reload fragment-equal
// instances, and re-encoding must reproduce the identical bytes — the
// property that makes the file format double as the wire format.
func TestStoreEncodeRoundTrip(t *testing.T) {
	s := storeSample()
	var buf bytes.Buffer
	if err := EncodeStore(&buf, s); err != nil {
		t.Fatalf("encode: %v", err)
	}
	first := append([]byte(nil), buf.Bytes()...)
	got, err := DecodeStore(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.NumNodes() != s.NumNodes() || got.TotalFacts() != s.TotalFacts() {
		t.Fatalf("decoded store shape %d nodes/%d facts, want %d/%d",
			got.NumNodes(), got.TotalFacts(), s.NumNodes(), s.TotalFacts())
	}
	for κ := 0; κ < s.NumNodes(); κ++ {
		if !got.Fragment(Node(κ)).Equal(s.Fragment(Node(κ))) {
			t.Errorf("node %d fragment changed across the round-trip", κ)
		}
	}
	if string(got.Meta()) != "cursor" {
		t.Errorf("meta %q across the round-trip, want %q", got.Meta(), "cursor")
	}
	var again bytes.Buffer
	if err := EncodeStore(&again, got); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Fatal("encode→decode→encode is not a fixpoint")
	}
}

// TestStoreDecodeSnapshotIsolation: a decoded store's fragments are
// its own — two decodes of one image share nothing, so a restart that
// adopts one decode's fragments and mutates them leaves the other, and
// the image, as they were.
func TestStoreDecodeSnapshotIsolation(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeStore(&buf, storeSample()); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	a, err := DecodeStore(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeStore(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	a.Fragment(0).Add(rel.NewFact("R", 99, 99))
	if b.Fragment(0).Contains(rel.NewFact("R", 99, 99)) {
		t.Fatal("mutating one decode's fragment leaked into another decode of the same image")
	}
	var again bytes.Buffer
	if err := EncodeStore(&again, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), img) {
		t.Fatal("the untouched decode no longer encodes to the image it came from")
	}
}

// TestStoreDecodeRejects: damaged checkpoint files fail with errors,
// never panics, and name what went wrong.
func TestStoreDecodeRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeStore(&buf, storeSample()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"empty", nil, "header"},
		{"bad magic", append([]byte{9, 9, 9, 9}, good[4:]...), "magic"},
		{"bad version", append(append(append([]byte(nil), good[:4]...), 0xff, 0xff), good[6:]...), "version"},
		{"version 2 image", append(append(append([]byte(nil), good[:4]...), 2, 0), good[6:]...), "version"},
		{"truncated mid-meta", good[:12], "meta"},
		{"oversized meta", append(append(append([]byte(nil), good[:6]...), 0xff, 0xff, 0xff, 0xff), good[10:]...), "bytes declared"},
		{"truncated mid-fragment", good[:len(good)-6], "fragment"},
		{"truncated mid-checksum", good[:len(good)-2], "checksum"},
		{"checksum mismatch", append(append([]byte(nil), good[:len(good)-1]...), good[len(good)-1]^1), "checksum mismatch"},
		{"trailing", append(append([]byte(nil), good...), 1), "trailing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeStore(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("decoder accepted a damaged store")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestStoreMetaIsolation: WithMeta is a new header over the same
// fragments — the receiver keeps its own meta, and neither the slice
// passed in nor the one Meta hands out aliases the store's.
func TestStoreMetaIsolation(t *testing.T) {
	base := storeSample()
	meta := []byte("round 3")
	s := base.WithMeta(meta)
	meta[0] = 'X'
	s.Meta()[1] = 'X'
	if got := string(s.Meta()); got != "round 3" {
		t.Errorf("meta %q after mutating the caller's slices, want %q", got, "round 3")
	}
	if got := string(base.Meta()); got != "cursor" {
		t.Errorf("WithMeta changed its receiver's meta to %q", got)
	}
	if s.NumNodes() != base.NumNodes() || !s.Fragment(0).Equal(base.Fragment(0)) {
		t.Error("WithMeta changed the fragments")
	}
	if NewStableStore(nil).Meta() != nil {
		t.Error("a store built without meta reports some")
	}
}

// TestSaveLoadStore: the atomic log writer lands exactly the records'
// bytes under the target name and leaves no temporary behind; a torn
// temporary from a crashed writer is neither read nor in the way; the
// reader applies every decoder check, reports absence as
// fs.ErrNotExist and a cut file as a torn tail; a missing directory is
// an error.
func TestSaveLoadStore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	if _, _, err := LoadLog(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("loading a missing log: %v, want fs.ErrNotExist", err)
	}
	if err := os.WriteFile(path+TempSuffix, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadLog(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a torn temporary was taken for the log: %v", err)
	}

	for _, stores := range [][]*StableStore{{NewStableStore(nil)}, logStores()} { // the second write replaces the first
		var records [][]byte
		var want []byte
		for _, s := range stores {
			records = append(records, EncodeLogRecord(s))
			want = append(want, recordOf(t, s)...)
		}
		if err := WriteLog(path, records...); err != nil {
			t.Fatalf("write: %v", err)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, want) {
			t.Fatal("the file is not the records' bytes")
		}
		recs, valid, err := LoadLog(path)
		if err != nil || len(recs) != len(stores) || valid != len(want) {
			t.Fatalf("load: %d records, %d valid bytes (err %v), want %d and %d", len(recs), valid, err, len(stores), len(want))
		}
		for i, s := range stores {
			if !bytes.Equal(recordOf(t, recs[i].Store), recordOf(t, s)) {
				t.Fatalf("record %d does not read back as the store written", i)
			}
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
			t.Fatalf("directory holds %d entries (err %v), want the log alone", len(entries), err)
		}
	}

	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, onDisk[:len(onDisk)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, valid, err := LoadLog(path); err != nil || len(recs) != len(logStores())-1 || valid >= len(onDisk)-1 {
		t.Fatalf("loading a cut log: %d records, %d valid bytes (err %v), want its whole records and a torn tail", len(recs), valid, err)
	}
	if err := WriteLog(filepath.Join(dir, "no-such-dir", "log"), EncodeLogRecord(storeSample())); err == nil {
		t.Fatal("writing into a missing directory succeeded")
	}
}

// TestDecodeKeepsNothingOfItsInput: the in-place decoder reads the
// caller's bytes and keeps none of them. An image, and a two-record log,
// are decoded and every input byte then overwritten; the decoded meta
// and fragments are what they were. (A store that aliased its input
// would keep a whole file alive behind one record's meta, and let bytes
// leak between the caller's buffer and the store it handed over.)
func TestDecodeKeepsNothingOfItsInput(t *testing.T) {
	wipe := func(b []byte) {
		for i := range b {
			b[i] = 0xa5
		}
	}
	img := appendStore(nil, storeSample())
	want := append([]byte(nil), img...)
	s, err := DecodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	wipe(img)
	if !bytes.Equal(appendStore(nil, s), want) {
		t.Fatal("overwriting the image changed the store decoded from it")
	}

	stores := []*StableStore{storeSample(), storeSample().WithMeta([]byte("round 2"))}
	log := append(EncodeLogRecord(stores[0]), EncodeLogRecord(stores[1])...)
	recs, valid, err := ReadLog(log)
	if err != nil || len(recs) != 2 || valid != len(log) {
		t.Fatalf("read: %d records, %d valid (err %v)", len(recs), valid, err)
	}
	wipe(log)
	for i, s := range stores {
		if !bytes.Equal(appendStore(nil, recs[i].Store), appendStore(nil, s)) {
			t.Fatalf("overwriting the log changed record %d's store", i)
		}
	}
}
