package policy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"mpclogic/internal/rel"
)

// buildFuzzStore interprets script as a construction program over a
// small store: each 3-byte step adds a fact to one of up to four node
// partitions, so images regularly mix empty and populated fragments,
// and a prefix of the script rides along as the meta section.
func buildFuzzStore(script []byte) *StableStore {
	parts := make([]*rel.Instance, 4)
	for i := range parts {
		parts[i] = rel.NewInstance()
	}
	names := []string{"R", "S", "ΔE"}
	for i := 0; i+2 < len(script); i += 3 {
		op, a, b := script[i], script[i+1], script[i+2]
		name := names[int(op>>2)%len(names)]
		parts[int(op)%len(parts)].Add(rel.NewFact(name, rel.Value(a%13), rel.Value(b%13)))
	}
	return NewStableStore(parts).WithMeta(script[:len(script)/3])
}

// FuzzStoreImage drives the checkpoint codec from both directions:
// the input bytes build a random store whose image must round-trip to
// the identical bytes, and the same input fed straight to the decoder
// must be rejected with an error — never a panic. Every single-bit
// mutation of a valid image must be rejected too, structurally or by
// the trailing CRC-32C: a damaged checkpoint file must never load as
// a plausible-but-wrong store.
func FuzzStoreImage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 5, 3, 4, 9, 7, 1})
	var seed bytes.Buffer
	if err := EncodeStore(&seed, storeSample()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: random store → image and back, a byte fixpoint.
		s := buildFuzzStore(data)
		var buf bytes.Buffer
		if err := EncodeStore(&buf, s); err != nil {
			t.Fatalf("encode: %v", err)
		}
		img := append([]byte(nil), buf.Bytes()...)
		got, err := DecodeStore(&buf)
		if err != nil {
			t.Fatalf("decoder rejected a fresh image: %v", err)
		}
		var again bytes.Buffer
		if err := EncodeStore(&again, got); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(img, again.Bytes()) {
			t.Fatal("encode→decode→encode is not a fixpoint")
		}

		// Direction 2: arbitrary bytes as an image — errors, not panics;
		// anything accepted must re-encode identically.
		if dec, err := DecodeStore(bytes.NewReader(data)); err == nil {
			var re bytes.Buffer
			if err := EncodeStore(&re, dec); err != nil {
				t.Fatalf("re-encoding an accepted image: %v", err)
			}
			if !bytes.Equal(re.Bytes(), data) {
				t.Fatalf("decoder accepted non-canonical bytes:\n  in %x\n out %x", data, re.Bytes())
			}
		}

		// Direction 3: every single-bit mutation of the valid image is
		// rejected. Large images sample bit positions at a fixed stride.
		stride := 1
		if nbits := len(img) * 8; nbits > 2048 {
			stride = nbits / 2048
		}
		for bitpos := 0; bitpos < len(img)*8; bitpos += stride {
			mut := append([]byte(nil), img...)
			mut[bitpos/8] ^= 1 << (bitpos % 8)
			if _, err := DecodeStore(bytes.NewReader(mut)); err == nil {
				t.Fatalf("decoder accepted a corrupted image (bit %d)", bitpos)
			}
		}
	})
}

// FuzzCheckpointLog drives the log reader from both directions. The
// input read as a log must never panic; every record returned must be
// the bytes it was read from (its store re-framed reproduces them); and
// what is left unread is torn only at EOF — shorter than a header, or a
// header whose checksum holds and whose record runs past the end — or
// else the read is a *LogError. A log built from the input's stores
// reads back whole, and each of its cuts reads as the records before
// the cut.
func FuzzCheckpointLog(f *testing.F) {
	var seed []byte
	for _, s := range []*StableStore{storeSample(), NewStableStore(nil)} {
		seed = appendLogRecord(seed, s)
	}
	f.Add([]byte{})
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add(seed[:5])
	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: arbitrary bytes as a log.
		recs, valid, err := ReadLog(data)
		if err != nil {
			var le *LogError
			if !errors.As(err, &le) {
				t.Fatalf("a damaged log is not a *LogError: %v", err)
			}
		} else {
			off := 0
			for i, rec := range recs {
				if got := appendLogRecord(nil, rec.Store); rec.Size != len(got) || !bytes.Equal(got, data[off:off+rec.Size]) {
					t.Fatalf("record %d is not the bytes it was read from", i)
				}
				off += rec.Size
			}
			if off != valid {
				t.Fatalf("records end at %d, valid says %d", off, valid)
			}
			if tail := data[valid:]; len(tail) >= logHeaderLen {
				n := binary.LittleEndian.Uint32(tail)
				if crc32.Checksum(tail[:4], storeCRCTable) != binary.LittleEndian.Uint32(tail[4:]) || uint64(n) <= uint64(len(tail)-logHeaderLen) {
					t.Fatalf("a tail of %d bytes left unread is not torn at EOF", len(tail))
				}
			}
		}

		// Direction 2: stores built from the input, as one log.
		var log []byte
		var ends []int
		for i := 0; i < len(data); i += 9 {
			log = appendLogRecord(log, buildFuzzStore(data[i:min(i+9, len(data))]))
			ends = append(ends, len(log))
		}
		if recs, valid, err := ReadLog(log); err != nil || len(recs) != len(ends) || valid != len(log) {
			t.Fatalf("a built log of %d records reads as %d, valid %d of %d (err %v)", len(ends), len(recs), valid, len(log), err)
		}
		stride := 1
		if len(log) > 512 {
			stride = len(log) / 512
		}
		for cut, n := 0, 0; cut <= len(log); cut += stride {
			for n < len(ends) && ends[n] <= cut {
				n++
			}
			if recs, _, err := ReadLog(log[:cut]); err != nil || len(recs) != n {
				t.Fatalf("the built log cut at %d reads as %d records (err %v), want %d", cut, len(recs), err, n)
			}
		}
	})
}
