package policy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// logStores are the images the log tests append, in order.
func logStores() []*StableStore {
	return []*StableStore{storeSample(), NewStableStore(nil), storeSample().WithMeta([]byte("round 2"))}
}

// recordOf is s's log record as the format spells it: the image's
// length, its CRC-32C, then EncodeStore's bytes.
func recordOf(t *testing.T, s *StableStore) []byte {
	t.Helper()
	var img bytes.Buffer
	if err := EncodeStore(&img, s); err != nil {
		t.Fatal(err)
	}
	hdr := binary.LittleEndian.AppendUint32(nil, uint32(img.Len()))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, storeCRCTable))
	return append(hdr, img.Bytes()...)
}

// TestLogAppendRead: a Log lands each record as `len | crc32c(len) |
// EncodeStore's bytes`, LoadLog reads the stores back in order with the
// whole file valid, and OpenLog at a shorter valid prefix cuts the file
// there, so the next append follows the records before the cut.
func TestLogAppendRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if _, _, err := LoadLog(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("loading a missing log: %v, want fs.ErrNotExist", err)
	}
	l, err := OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, s := range logStores() {
		rec := recordOf(t, s)
		n, err := l.Append(s)
		if err != nil || n != len(rec) {
			t.Fatalf("append: %d bytes (err %v), want %d", n, err, len(rec))
		}
		want = append(want, rec...)
	}
	if l.Size() != len(want) {
		t.Errorf("the log says it holds %d bytes, want %d", l.Size(), len(want))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, want) {
		t.Fatalf("the file is not the records' bytes (err %v)", err)
	}
	recs, valid, err := LoadLog(path)
	if err != nil || len(recs) != 3 || valid != len(want) {
		t.Fatalf("load: %d records, %d valid bytes (err %v), want 3 and %d", len(recs), valid, err, len(want))
	}
	for i, s := range logStores() {
		if got := recordOf(t, recs[i].Store); !bytes.Equal(got, recordOf(t, s)) || recs[i].Size != len(got) {
			t.Errorf("record %d does not read back as the store appended", i)
		}
	}

	l, err = OpenLog(path, recs[0].Size)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(logStores()[2]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, valid, err = LoadLog(path)
	if err != nil || len(recs) != 2 || string(recs[1].Store.Meta()) != "round 2" {
		t.Fatalf("after a cut and an append: %d records (err %v), want the first and the appended one", len(recs), err)
	}
	if info, err := os.Stat(path); err != nil || int(info.Size()) != valid {
		t.Errorf("the file holds bytes past its records (err %v)", err)
	}
}

// TestReadLogTornTail: a log cut at any byte reads as its complete
// records before the cut, valid where they end, and no error.
func TestReadLogTornTail(t *testing.T) {
	var data []byte
	ends := []int{0}
	for _, s := range logStores() {
		data = append(data, recordOf(t, s)...)
		ends = append(ends, len(data))
	}
	for cut := 0; cut <= len(data); cut++ {
		n := 0
		for n+1 < len(ends) && ends[n+1] <= cut {
			n++
		}
		recs, valid, err := ReadLog(data[:cut])
		if err != nil || len(recs) != n || valid != ends[n] {
			t.Fatalf("cut at %d: %d records, valid %d (err %v), want %d and %d", cut, len(recs), valid, err, n, ends[n])
		}
	}
}

// TestReadLogRejects: every single-bit flip in a complete record — in
// its length, the length's checksum or the image — is a *LogError at
// that record's offset, never a skipped record or a torn tail, and
// only a flip in the header is blamed on the header's checksum.
func TestReadLogRejects(t *testing.T) {
	var data []byte
	var starts []int
	for _, s := range logStores() {
		starts = append(starts, len(data))
		data = append(data, recordOf(t, s)...)
	}
	for bitpos := 0; bitpos < len(data)*8; bitpos++ {
		mut := append([]byte(nil), data...)
		mut[bitpos/8] ^= 1 << (bitpos % 8)
		at := starts[0]
		for _, st := range starts {
			if st <= bitpos/8 {
				at = st
			}
		}
		_, _, err := ReadLog(mut)
		var le *LogError
		if !errors.As(err, &le) || le.Offset != at {
			t.Fatalf("bit %d flipped: %v, want a *LogError at byte %d", bitpos, err, at)
		}
		if inHeader := bitpos/8-at < logHeaderLen; strings.Contains(err.Error(), "header checksum") != inHeader {
			t.Fatalf("bit %d flipped (in the header: %v): %q", bitpos, inHeader, err)
		}
	}
}
