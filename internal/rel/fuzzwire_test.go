package rel

import (
	"bytes"
	"testing"
)

// buildFuzzFragment interprets script as a construction program over a
// small instance: each 3-byte step adds a fact or churns the insertion
// order of a relation, re-appending its tuples in reverse (a step that
// names an absent relation makes it present and empty). The value
// domain mixes plain small values with shifted ones that collide in the
// table's low bits, so encoding regularly runs over arenas out of
// sorted order, relations present with no tuple, and collision chains.
func buildFuzzFragment(script []byte) *Instance {
	names := []string{"R", "S", "ΔE", "C"}
	inst := NewInstance()
	for i := 0; i+2 < len(script); i += 3 {
		op, a, b := script[i], script[i+1], script[i+2]
		name := names[int(op>>2)%len(names)]
		va, vb := Value(a%11), Value(b%11)
		if a >= 128 {
			va = Value(int64(a%11) << 32) // forced low-bit hash collisions
		}
		var f Fact
		if name == "S" {
			f = NewFact(name, va)
		} else {
			f = NewFact(name, va, vb)
		}
		if op%4 == 3 {
			inst.SetRelation(reversed(inst.EnsureRelation(name, len(f.Tuple))))
		} else {
			inst.Add(f)
		}
	}
	return inst
}

// reversed returns r's tuples appended in reverse Each order, with no
// table.
func reversed(r *Relation) *Relation {
	ts := eachTuples(r)
	out := NewRelationSize(r.Name, r.Arity, len(ts))
	for i := len(ts) - 1; i >= 0; i-- {
		out.AddDistinct(ts[i])
	}
	return out
}

// FuzzFragmentWire drives the wire codec from both directions with one
// input: the bytes are used (a) as a construction script for a random
// fragment, asserting the encode→decode→encode fixpoint and fact-level
// equality, and (b) as a raw candidate frame fed straight to the
// decoder, which must reject garbage with an error — never a panic —
// and must re-encode anything it accepts to the identical bytes.
func FuzzFragmentWire(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 4, 2, 1, 3, 1, 2}) // adds + a reversal
	f.Add([]byte{0, 200, 5, 0, 201, 5, 0, 202, 5})
	f.Add(EncodeInstance(wireSample()))
	f.Add(EncodeInstance(buildFuzzFragment([]byte{8, 3, 9, 12, 130, 7, 7, 3, 9})))
	truncated := EncodeInstance(wireSample())
	f.Add(truncated[:len(truncated)-5])
	flipped := EncodeInstance(wireSample())
	flipped[len(flipped)/2] ^= 0x10 // mid-frame bit flip the checksum must catch
	f.Add(flipped)
	// Both sides of the decoder's switch from strict ascent to the
	// table: a duplicate right after an ascending run, and a descent
	// followed by an ascent, which is canonical.
	f.Add(wireSeal(append(wireHeader(1), wireRelation("R", 2, 1, 2, 3, 4, 3, 4)...)))
	f.Add(wireSeal(append(wireHeader(1), wireRelation("R", 2, 1, 2, 3, 4, 5, 6, 0, 9, 3, 4)...)))
	f.Add(wireSeal(append(wireHeader(1), wireRelation("R", 2, 3, 4, 5, 6, 1, 2, 7, 8, 9, 0)...)))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: random fragment → canonical bytes and back.
		inst := buildFuzzFragment(data)
		buf := EncodeInstance(inst)
		if len(buf) != EncodedSize(inst) {
			t.Fatalf("EncodedSize %d != encoded length %d", EncodedSize(inst), len(buf))
		}
		decoded, err := DecodeInstance(buf)
		if err != nil {
			t.Fatalf("decoder rejected a fresh encoding: %v", err)
		}
		if !decoded.Equal(inst) {
			t.Fatalf("round-trip changed the fact set: got %v want %v", decoded, inst)
		}
		if again := EncodeInstance(decoded); !bytes.Equal(buf, again) {
			t.Fatalf("encode→decode→encode not a fixpoint:\n first %x\nsecond %x", buf, again)
		}

		// Direction 2: arbitrary bytes as a frame. Any panic escapes to
		// the fuzzer as a crash; an accepted frame must be canonical.
		if got, err := DecodeInstance(data); err == nil {
			if re := EncodeInstance(got); !bytes.Equal(re, data) {
				t.Fatalf("decoder accepted non-canonical bytes:\n  in %x\n out %x", data, re)
			}
		}

		// Direction 3: every single-bit mutation of a valid encoding is
		// rejected — structurally or by the trailing CRC-32C, which
		// detects all single-bit errors by construction. Large frames
		// sample bit positions at a fixed stride to bound the cost; the
		// stride covers every byte region of the frame either way.
		stride := 1
		if nbits := len(buf) * 8; nbits > 2048 {
			stride = nbits / 2048
		}
		for bitpos := 0; bitpos < len(buf)*8; bitpos += stride {
			mut := append([]byte(nil), buf...)
			mut[bitpos/8] ^= 1 << (bitpos % 8)
			if _, err := DecodeInstance(mut); err == nil {
				t.Fatalf("decoder accepted a corrupted frame (bit %d of %x)", bitpos, buf)
			}
		}
	})
}
