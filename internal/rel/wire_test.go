package rel

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
)

// wireHeader, wireRelation and wireSeal write a frame by hand, so a
// test can hold the decoder to inputs no encoder emits.
func wireHeader(rels int) []byte {
	b := binary.LittleEndian.AppendUint32(nil, 0x5743504d)
	b = binary.LittleEndian.AppendUint16(b, WireVersion)
	return binary.LittleEndian.AppendUint32(b, uint32(rels))
}

func wireRelation(name string, arity int, tuples ...uint64) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(len(name)))
	b = append(b, name...)
	b = binary.LittleEndian.AppendUint16(b, uint16(arity))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(tuples)/arity))
	for _, v := range tuples {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// wireSeal appends the CRC-32C trailer of frame.
func wireSeal(frame []byte) []byte {
	return binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, crc32.MakeTable(crc32.Castagnoli)))
}

func wireSample() *Instance {
	inst := NewInstance()
	inst.Add(NewFact("R", 1, 2))
	inst.Add(NewFact("R", 2, 3))
	inst.Add(NewFact("R", -7, 0)) // negative values must survive the u64 round-trip
	inst.Add(NewFact("S", 9))
	inst.Add(NewFact("ΔE", 4, 5)) // multi-byte UTF-8 relation names
	return inst
}

// TestWireRoundTrip: Decode(Encode(i)) must equal i, and re-encoding
// the decoded instance must reproduce the exact bytes (canonicity).
func TestWireRoundTrip(t *testing.T) {
	inst := wireSample()
	buf := EncodeInstance(inst)
	if len(buf) != EncodedSize(inst) {
		t.Errorf("EncodedSize predicts %d bytes, encoder wrote %d", EncodedSize(inst), len(buf))
	}
	got, err := DecodeInstance(buf)
	if err != nil {
		t.Fatalf("decode of a fresh encoding failed: %v", err)
	}
	if !got.Equal(inst) {
		t.Fatalf("round-trip lost facts: got %v want %v", got, inst)
	}
	again := EncodeInstance(got)
	if !bytes.Equal(buf, again) {
		t.Fatalf("encode→decode→encode is not a fixpoint:\n first %x\nsecond %x", buf, again)
	}
}

// TestWireEmptyInstance: an empty instance encodes to a bare header and
// decodes back to empty.
func TestWireEmptyInstance(t *testing.T) {
	buf := EncodeInstance(NewInstance())
	got, err := DecodeInstance(buf)
	if err != nil {
		t.Fatalf("decode of empty instance: %v", err)
	}
	if !got.IsEmpty() {
		t.Fatalf("decoded empty instance holds facts: %v", got)
	}
}

// TestWireSkipsEmptyAndTombstonedRelations: a relation present in the
// instance but holding no tuple must not appear on the wire — the
// encoding is the one of the instance without it — and a relation
// appended out of order ships its arena as it stands.
func TestWireSkipsEmptyAndTombstonedRelations(t *testing.T) {
	inst := NewInstance()
	inst.Add(NewFact("R", 3, 4))
	inst.Add(NewFact("R", 1, 2))
	inst.EnsureRelation("gone", 1)
	buf := EncodeInstance(inst)
	if len(buf) != EncodedSize(inst) {
		t.Fatalf("EncodedSize %d, encoding %d bytes", EncodedSize(inst), len(buf))
	}
	if want := EncodeInstance(FromFacts(NewFact("R", 3, 4), NewFact("R", 1, 2))); !bytes.Equal(buf, want) {
		t.Fatalf("encoding with an empty relation %x, without %x", buf, want)
	}
	got, err := DecodeInstance(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got.Equal(inst) || !equalLists(eachTuples(got.Relation("R")), eachTuples(inst.Relation("R"))) {
		t.Fatalf("round-trip mismatch: got %v want %v", got, inst)
	}
	if got.Relation("gone") != nil {
		t.Error("an empty relation leaked onto the wire")
	}
}

// TestWireDeterministicAcrossInsertionOrders: two instances with the
// same facts added in different orders may encode differently (arena
// order is insertion order), but both encodings must decode to equal
// instances — and an instance built by sorted insertion is the
// canonical representative both decode-encodes converge to.
func TestWireDeterministicAcrossInsertionOrders(t *testing.T) {
	a := NewInstance()
	a.Add(NewFact("R", 1, 2))
	a.Add(NewFact("R", 3, 4))
	b := NewInstance()
	b.Add(NewFact("R", 3, 4))
	b.Add(NewFact("R", 1, 2))
	da, err := DecodeInstance(EncodeInstance(a))
	if err != nil {
		t.Fatal(err)
	}
	db, err := DecodeInstance(EncodeInstance(b))
	if err != nil {
		t.Fatal(err)
	}
	if !da.Equal(db) {
		t.Fatalf("same fact set decoded unequal: %v vs %v", da, db)
	}
}

// TestWireDecodeRejects enumerates the malformed-frame classes the
// decoder must reject with an error (never a panic).
func TestWireDecodeRejects(t *testing.T) {
	good := EncodeInstance(wireSample())
	cases := []struct {
		name    string
		mutate  func() []byte
		wantErr string
	}{
		{"empty input", func() []byte { return nil }, "truncated"},
		{"bad magic", func() []byte {
			b := append([]byte(nil), good...)
			b[0] ^= 0xff
			return b
		}, "magic"},
		{"future version", func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint16(b[4:], WireVersion+1)
			return b
		}, "version"},
		{"truncated mid-values", func() []byte { return good[:len(good)-3] }, "remain"},
		{"trailing bytes", func() []byte { return append(append([]byte(nil), good...), 0xaa) }, "trailing"},
		{"relation count beyond payload", func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(b[6:], 0xffffffff)
			return b
		}, "relations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeInstance(tc.mutate())
			if err == nil {
				t.Fatal("decoder accepted a malformed frame")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestWireRejectsNonCanonical: structurally well-formed but
// non-canonical encodings (duplicate tuples, zero counts, unsorted
// names) are rejected, which is what makes Encode∘Decode the identity
// on all accepted inputs. Duplicates are caught on both sides of the
// decoder's switch from strict ascent to the table: right after an
// ascending run, and after a descent, of a tuple in the run. A descent
// followed by an ascent is canonical and is accepted.
func TestWireRejectsNonCanonical(t *testing.T) {
	header, relation := wireHeader, wireRelation
	cases := []struct {
		name    string
		frame   []byte
		wantErr string
	}{
		{"duplicate tuple", append(header(1), relation("R", 2, 1, 2, 1, 2)...), "duplicate"},
		{"zero count", append(header(1), relation("R", 2)...), "zero tuples"},
		{"zero arity", append(header(1), []byte{1, 0, 'R', 0, 0, 1, 0, 0, 0}...), "arity"},
		{"empty name", append(header(1), relation("", 1, 7)...), "empty relation name"},
		{"names out of order", append(header(2), append(relation("S", 1, 1), relation("R", 1, 2)...)...), "out of order"},
		{"duplicate name", append(header(2), append(relation("R", 1, 1), relation("R", 1, 2)...)...), "out of order"},
		{"duplicate after an ascending run", wireSeal(append(header(1), relation("R", 2, 1, 2, 3, 4, 3, 4)...)), "duplicate tuple (3,4)"},
		{"duplicate of the run after a descent", wireSeal(append(header(1), relation("R", 2, 1, 2, 3, 4, 5, 6, 0, 9, 3, 4)...)), "duplicate tuple (3,4)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeInstance(tc.frame)
			if err == nil {
				t.Fatal("decoder accepted a non-canonical frame")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	t.Run("descent then ascent is accepted", func(t *testing.T) {
		frame := wireSeal(append(header(1), relation("R", 2, 3, 4, 5, 6, 1, 2, 7, 8, 9, 0)...))
		got, err := DecodeInstance(frame)
		if err != nil {
			t.Fatalf("decoder rejected a canonical frame: %v", err)
		}
		if re := EncodeInstance(got); !bytes.Equal(re, frame) {
			t.Fatalf("re-encoding differs:\n  in %x\n out %x", frame, re)
		}
		r := got.Relation("R")
		if r.ascending || r.slots == nil {
			t.Errorf("a relation decoded past a descent is marked ascending %v, table built %v", r.ascending, r.slots != nil)
		}
		checkSortedEnumeration(t, "descent then ascent", r)
	})
	t.Run("an ascending frame builds no table", func(t *testing.T) {
		got, err := DecodeInstance(wireSeal(append(header(1), relation("R", 2, 1, 2, 1, 3, 2, 0)...)))
		if err != nil {
			t.Fatalf("decoder rejected a canonical frame: %v", err)
		}
		if r := got.Relation("R"); !r.ascending || r.slots != nil || r.hashes != nil {
			t.Errorf("an ascending relation decoded marked ascending %v, table built %v, %d hashes cached",
				r.ascending, r.slots != nil, len(r.hashes))
		}
	})
}

// TestWireCollisionTuples: tuples engineered to share full 64-bit
// hashes (the substrate property suite's collision trick) must survive
// the wire individually.
func TestWireCollisionTuples(t *testing.T) {
	inst := NewInstance()
	// Low-bit collisions: many values mapping to the same table slots.
	for i := 0; i < 64; i++ {
		inst.Add(NewFact("C", Value(i<<32), Value(i)))
	}
	got, err := DecodeInstance(EncodeInstance(inst))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got.Equal(inst) {
		t.Fatalf("collision-heavy round-trip mismatch")
	}
}

// TestDecodeVerdictsAcrossTheSwitch holds the one-pass decoder, which
// reads a relation's values first and then takes its longest ascending
// prefix as the relation, to the tuple-at-a-time verdicts: wherever the
// first descent sits, the frame decodes to the same set, re-encodes to
// its own bytes and builds its table at the descent; a frame that is
// all prefix builds none; a duplicate on either side of the switch,
// adjacent or not, fails with the same text; and a cut anywhere in a
// relation's values is an error.
func TestDecodeVerdictsAcrossTheSwitch(t *testing.T) {
	const n = 12
	asc := make([]uint64, 0, 2*n) // n ascending pairs: (i, 2i mod 5)
	for i := range uint64(n) {
		asc = append(asc, i, 2*i%5)
	}
	want := NewRelation("R", 2)
	for i := 0; i < len(asc); i += 2 {
		want.Add(Tuple{Value(asc[i]), Value(asc[i+1])})
	}
	for _, d := range []int{1, n / 2, n - 1} {
		// Swapping tuples d−1 and d puts the first descent at tuple d.
		vals := append([]uint64(nil), asc...)
		vals[2*d-2], vals[2*d-1], vals[2*d], vals[2*d+1] = vals[2*d], vals[2*d+1], vals[2*d-2], vals[2*d-1]
		frame := wireSeal(append(wireHeader(1), wireRelation("R", 2, vals...)...))
		got, err := DecodeInstance(frame)
		if err != nil {
			t.Fatalf("descent at %d: %v", d, err)
		}
		r := got.Relation("R")
		if !r.Equal(want) || r.ascending || r.slots == nil {
			t.Errorf("descent at %d: decodes to the set %v, ascending %v, table built %v", d, r.Equal(want), r.ascending, r.slots != nil)
		}
		if re := EncodeInstance(got); !bytes.Equal(re, frame) {
			t.Errorf("descent at %d: re-encoding differs", d)
		}
		checkSortedEnumeration(t, "descent", r)
		prefix, err := DecodeInstance(wireSeal(append(wireHeader(1), wireRelation("R", 2, vals[:2*d]...)...)))
		if err != nil {
			t.Fatalf("prefix of %d: %v", d, err)
		}
		if p := prefix.Relation("R"); p.Len() != d || !p.ascending || p.slots != nil || p.hashes != nil {
			t.Errorf("prefix of %d: %d tuples, ascending %v, table built %v, %d hashes", d, p.Len(), p.ascending, p.slots != nil, len(p.hashes))
		}
	}
	const dup = `rel: relation "R" carries duplicate tuple (3) (canonical encoding is duplicate-free)`
	for _, vals := range [][]uint64{
		{1, 2, 3, 3, 4},    // adjacent, the switch itself
		{1, 3, 5, 3, 6},    // not adjacent, the switch itself
		{1, 5, 3, 3, 6},    // adjacent, after the switch
		{1, 3, 5, 2, 3},    // a prefix tuple, after the switch
		{5, 1, 3, 4, 3, 6}, // a tuple after the switch, later again
	} {
		_, err := DecodeInstance(wireSeal(append(wireHeader(1), wireRelation("R", 1, vals...)...)))
		if err == nil || err.Error() != dup {
			t.Errorf("%v: error %v, want %q", vals, err, dup)
		}
	}
	frame := EncodeInstance(wireSample())
	for cut := range len(frame) {
		if _, err := DecodeInstance(frame[:cut]); err == nil {
			t.Fatalf("a frame cut to %d of its %d bytes decoded", cut, len(frame))
		}
	}
}

// TestEncodeRoundRobinLaw: EncodeRoundRobin is a round-robin deal of
// the sorted input. For p ∈ {1, 2, 3, 7} — 7 leaves some shares empty
// on the small instances — share k is byte for byte EncodeInstance of
// the instance holding facts k, k+p, k+2p, … of SortedFacts. The input
// has a relation inserted in ascending order (its arena is read in
// place) and one inserted shuffled (its sorted enumeration is built).
func TestEncodeRoundRobinLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		inst := NewInstance()
		for k := 0; k < rng.Intn(12); k++ {
			inst.Add(NewFact("A", Value(k), Value(2*k)))
		}
		for _, k := range rng.Perm(rng.Intn(15)) {
			inst.Add(NewFact("B", Value(k%4), Value(k), Value(rng.Intn(3))))
		}
		sorted := inst.SortedFacts()
		for _, p := range []int{1, 2, 3, 7} {
			shares := EncodeRoundRobin(inst, p)
			if len(shares) != p {
				t.Fatalf("trial %d, p=%d: %d shares", trial, p, len(shares))
			}
			for k, share := range shares {
				part := NewInstance()
				for i := k; i < len(sorted); i += p {
					part.Add(sorted[i])
				}
				if want := EncodeInstance(part); !bytes.Equal(share, want) {
					t.Errorf("trial %d, p=%d: share %d is not the encoding of facts %d, %d+p, … (%d facts)", trial, p, k, k, k, part.Len())
				}
			}
		}
	}
}
