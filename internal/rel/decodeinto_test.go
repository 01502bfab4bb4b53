package rel

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestDecodeInstanceIntoIsUnionWith: decoding several fragments into
// one instance lands what decoding each and folding them in order —
// adopting a relation's first copy, UnionWith for every later one —
// lands: the same EncodeInstance bytes and the same Each order of every
// relation, whether the caller pre-sized the relations several
// fragments ship from ScanInstance's counts or left them to grow. The
// fragments overlap, and their relations are both ascending and not.
func TestDecodeInstanceIntoIsUnionWith(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		frames := make([][]byte, 1+rng.Intn(4))
		for k := range frames {
			script := make([]byte, 3*rng.Intn(24))
			rng.Read(script)
			frames[k] = EncodeInstance(buildFuzzFragment(script))
		}
		want := NewInstance()
		for _, data := range frames {
			dec, err := DecodeInstance(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range dec.RelationNames() {
				if r := want.Relation(name); r != nil {
					r.UnionWith(dec.Relation(name))
				} else {
					want.SetRelationAs(name, dec.Relation(name))
				}
			}
		}
		for _, presize := range []bool{false, true} {
			got := NewInstance()
			if presize {
				sizes, shippers := map[string]int{}, map[string]int{}
				arity := map[string]int{}
				for _, data := range frames {
					if err := ScanInstance(data, func(name string, a, count int) {
						sizes[name] += count
						shippers[name]++
						arity[name] = a
					}); err != nil {
						t.Fatal(err)
					}
				}
				for _, name := range []string{"C", "R", "S", "ΔE"} {
					if shippers[name] > 1 {
						got.EnsureRelationSize(name, arity[name], sizes[name])
					}
				}
			}
			for _, data := range frames {
				if err := DecodeInstanceInto(got, data); err != nil {
					t.Fatalf("trial %d, pre-sized %v: %v", trial, presize, err)
				}
			}
			if !bytes.Equal(EncodeInstance(got), EncodeInstance(want)) {
				t.Fatalf("trial %d, pre-sized %v: decoded into %v, folded %v", trial, presize, got, want)
			}
			for _, name := range want.RelationNames() {
				if g, w := fmt.Sprint(eachTuples(got.Relation(name))), fmt.Sprint(eachTuples(want.Relation(name))); g != w {
					t.Errorf("trial %d, pre-sized %v: %s enumerates %s, folded %s", trial, presize, name, g, w)
				}
			}
		}
	}
}

// TestDecodeInstanceIntoVerdicts: a fact that two fragments carry lands
// once, but a fragment that carries a fact twice is the canonical-form
// error — also when an earlier fragment carried that fact — and a
// fragment's own order and arity are checked as DecodeInstance checks
// them. Every single-bit flip of a fragment fails decoding into an
// instance as it fails DecodeInstance.
func TestDecodeInstanceIntoVerdicts(t *testing.T) {
	first := wireSeal(append(wireHeader(1), wireRelation("R", 2, 1, 2, 3, 4)...))
	for _, c := range []struct {
		name, err string
		data      []byte
	}{
		{"shares a fact", "", wireSeal(append(wireHeader(1), wireRelation("R", 2, 5, 6, 1, 2, 0, 9)...))},
		{"repeats its own fact", "duplicate", wireSeal(append(wireHeader(1), wireRelation("R", 2, 5, 6, 0, 9, 5, 6)...))},
		{"repeats a shared fact", "duplicate", wireSeal(append(wireHeader(1), wireRelation("R", 2, 5, 6, 1, 2, 1, 2)...))},
		{"another arity", "arity", wireSeal(append(wireHeader(1), wireRelation("R", 1, 7)...))},
		{"out of order", "out of order", wireSeal(append(append(wireHeader(2), wireRelation("S", 1, 1)...), wireRelation("R", 2, 8, 8)...))},
	} {
		inst := NewInstance()
		if err := DecodeInstanceInto(inst, first); err != nil {
			t.Fatal(err)
		}
		err := DecodeInstanceInto(inst, c.data)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.err == "" && fmt.Sprint(eachTuples(inst.Relation("R"))) != "[(1,2) (3,4) (5,6) (0,9)]":
			t.Errorf("%s: R enumerates %v, want the shared fact once, in order", c.name, eachTuples(inst.Relation("R")))
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: err %v, want one naming %q", c.name, err, c.err)
		}
	}

	buf := EncodeInstance(wireSample())
	for bitpos := 0; bitpos < len(buf)*8; bitpos++ {
		mut := bytes.Clone(buf)
		mut[bitpos/8] ^= 1 << (bitpos % 8)
		_, want := DecodeInstance(mut)
		for _, into := range []*Instance{NewInstance(), wireSample()} {
			if err := DecodeInstanceInto(into, mut); (err == nil) != (want == nil) {
				t.Fatalf("bit %d: DecodeInstanceInto says %v, DecodeInstance %v", bitpos, err, want)
			}
		}
	}
}

// TestScanInstanceReadsTheHeaders: ScanInstance reports every relation
// an encoding carries — name, arity, tuple count, in name order — and
// refuses what DecodeInstance refuses structurally.
func TestScanInstanceReadsTheHeaders(t *testing.T) {
	var got []string
	if err := ScanInstance(EncodeInstance(wireSample()), func(name string, arity, count int) {
		got = append(got, fmt.Sprintf("%s/%d×%d", name, arity, count))
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[R/2×3 S/1×1 ΔE/2×1]" {
		t.Errorf("scanned %v", got)
	}
	buf := EncodeInstance(wireSample())
	for cut := 0; cut < len(buf)-wireCRCLen; cut++ {
		if err := ScanInstance(buf[:cut], func(string, int, int) {}); err == nil {
			t.Fatalf("ScanInstance accepted the encoding cut at byte %d of %d", cut, len(buf))
		}
	}
}
