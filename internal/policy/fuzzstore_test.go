package policy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sort"
	"testing"

	"mpclogic/internal/rel"
)

// buildFuzzStore interprets script as a construction program over a
// small store: each 3-byte step adds a fact to one of up to four node
// partitions, so images regularly mix empty and populated fragments,
// and a prefix of the script rides along as the meta section. Only the
// first maxScript bytes are read: a store that size already mixes every
// relation and node, and a bound keeps an exec's cost, and so the
// fuzzer's minimization of a long input, from growing with its length.
func buildFuzzStore(script []byte) *StableStore {
	const maxScript = 96
	script = script[:min(len(script), maxScript)]
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
	const flipBudget = 64
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

		// Direction 3: single-bit mutations of the valid image are
		// rejected. The positions are sampled at a stride that keeps
		// them to flipBudget per input, from a phase the image's own
		// checksum picks, so successive inputs reach every position;
		// TestEveryBitFlipIsRejected flips every bit of one image.
		// An unbounded count made an exec quadratic in the input's size,
		// and the fuzzer minimizes each new input over thousands of
		// execs, during which it reports none.
		nbits := len(img) * 8
		stride := max(1, (nbits+flipBudget-1)/flipBudget)
		for bitpos := int(binary.LittleEndian.Uint32(img[len(img)-4:])) % stride; bitpos < nbits; bitpos += stride {
			img[bitpos/8] ^= 1 << (bitpos % 8)
			_, err := DecodeStore(bytes.NewReader(img))
			img[bitpos/8] ^= 1 << (bitpos % 8)
			if err == nil {
				t.Fatalf("decoder accepted a corrupted image (bit %d)", bitpos)
			}
		}
	})
}

// TestEveryBitFlipIsRejected is direction 3 of FuzzStoreImage without
// the sampling: no single-bit mutation of a store image decodes.
func TestEveryBitFlipIsRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeStore(&buf, storeSample()); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	for bitpos := 0; bitpos < len(img)*8; bitpos++ {
		img[bitpos/8] ^= 1 << (bitpos % 8)
		_, err := DecodeStore(bytes.NewReader(img))
		img[bitpos/8] ^= 1 << (bitpos % 8)
		if err == nil {
			t.Fatalf("decoder accepted a corrupted image (bit %d of %d)", bitpos, len(img)*8)
		}
	}
}

// FuzzCheckpointLog drives the log reader from both directions. The
// input read as a log must never panic; every record returned must be
// the bytes it was read from (its store re-framed reproduces them); and
// what is left unread is torn only at EOF — shorter than a header, or a
// header whose checksum holds and whose record runs past the end — or
// else the read is a *LogError. A log built from stores of the input's
// first bytes reads back whole, and a cut of it reads as the whole
// records before the cut: at and beside every record boundary, and at
// the log's quarter points.
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

		// Direction 2: stores built from the input's first 9-byte
		// scripts, as one log of at most maxRecords records. The bound
		// keeps an exec's cost independent of the input's length: the
		// fuzzing engine grows inputs far past anything a log reader
		// needs, and its minimizer calls the target O(n²) times on an
		// n-byte input, so a target whose cost grows with n spends the
		// run minimizing instead of fuzzing.
		const maxRecords = 8
		script := data[:min(len(data), 9*maxRecords)]
		var log []byte
		var ends []int
		for i := 0; i < len(script); i += 9 {
			log = appendLogRecord(log, buildFuzzStore(script[i:min(i+9, len(script))]))
			ends = append(ends, len(log))
		}
		if recs, valid, err := ReadLog(log); err != nil || len(recs) != len(ends) || valid != len(log) {
			t.Fatalf("a built log of %d records reads as %d, valid %d of %d (err %v)", len(ends), len(recs), valid, len(log), err)
		}
		// A cut of log[from:] reads as the whole records between from and
		// the cut. Every record, read from its own start, is cut inside
		// its header, just past it, one byte short, at its end and one byte
		// into the next record; the log, read from its start, is cut at
		// its quarter points. So each record is decoded a bounded number
		// of times.
		readCut := func(from, cut int) {
			want := sort.SearchInts(ends, cut+1) - sort.SearchInts(ends, from+1)
			if recs, _, err := ReadLog(log[from:cut]); err != nil || len(recs) != want {
				t.Fatalf("the built log read from %d and cut at %d reads as %d records (err %v), want %d", from, cut, len(recs), err, want)
			}
		}
		start := 0
		for _, end := range ends {
			for _, cut := range []int{start + 1, start + logHeaderLen, end - 1, end, end + 1} {
				readCut(start, min(cut, len(log)))
			}
			start = end
		}
		for i := 1; i < 4; i++ {
			readCut(0, i*len(log)/4)
		}
	})
}
