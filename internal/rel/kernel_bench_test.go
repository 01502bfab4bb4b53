package rel

import (
	"fmt"
	"math/rand"
	"testing"
)

// spanRelation returns a relation of n distinct tuples of the given
// arity whose values are drawn uniformly from [0, 2^bits) (bits = 64:
// the whole int64 range, negatives included).
func spanRelation(seed int64, arity, n, bits int) *Relation {
	rng := rand.New(rand.NewSource(seed))
	r := NewRelationSize("R", arity, n)
	for t := make(Tuple, arity); r.Len() < n; {
		for j := range t {
			if bits == 64 {
				t[j] = Value(rng.Uint64())
			} else {
				t[j] = Value(rng.Int63n(1 << bits))
			}
		}
		r.Add(t)
	}
	return r
}

// BenchmarkTuples prices one sorted enumeration of a relation (the
// cache dropped before every call): binary answers of serving size on
// both sides of the comparison base case, and arity 4 at full 64-bit
// width, where the radix passes would outnumber a comparison sort's
// comparisons and the comparison base case runs.
func BenchmarkTuples(b *testing.B) {
	for _, c := range []struct{ arity, n, bits int }{
		{2, 16, 20}, {2, 256, 20}, {2, 20000, 20}, {4, 20000, 64},
	} {
		r := spanRelation(1, c.arity, c.n, c.bits)
		b.Run(fmt.Sprintf("arity=%d/n=%d/bits=%d", c.arity, c.n, c.bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.sorted = nil
				if len(r.Tuples()) != c.n {
					b.Fatal("short enumeration")
				}
			}
		})
	}
}

// decodeFragment is the 40 000-fact fragment the decode benchmarks
// read, R and S of random tuples, encoded in the order they were drawn
// or, ascending, in sorted order.
func decodeFragment(ascending bool) []byte {
	inst := NewInstance()
	for name, r := range map[string]*Relation{"R": spanRelation(2, 2, 20000, 20), "S": spanRelation(3, 3, 20000, 20)} {
		if ascending {
			sorted := NewRelationSize(name, r.Arity, r.Len())
			for _, t := range r.Tuples() {
				sorted.AddDistinct(t)
			}
			r = sorted
		}
		inst.SetRelationAs(name, r)
	}
	return EncodeInstance(inst)
}

func benchmarkDecode(b *testing.B, data []byte) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInstance(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeInstance prices decoding a 40 000-fact fragment whose
// tuples arrive in no order: the byte reading and the hash table every
// such fragment builds on receipt.
func BenchmarkDecodeInstance(b *testing.B) { benchmarkDecode(b, decodeFragment(false)) }

// BenchmarkDecodeAscending prices decoding the same fragment encoded
// ascending, as a dealt share is: strict ascent is the duplicate check,
// and no table is built.
func BenchmarkDecodeAscending(b *testing.B) { benchmarkDecode(b, decodeFragment(true)) }

// BenchmarkHashJoin prices the one join index both ways the algebra
// uses it: a fresh build plus probe (two 20 000-tuple binary relations,
// no index cached), and a delta round against a resident relation whose
// cached index is maintained on insert — 256 new tuples folded in
// (AbsorbNew), then joined against it, per op. The resident restarts
// from its 20 000 tuples every 64 ops, off the clock.
func BenchmarkHashJoin(b *testing.B) {
	l, r := spanRelation(4, 2, 20000, 14), spanRelation(5, 2, 20000, 14)
	b.Run("build+probe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.idx, r.idx = nil, nil
			HashJoin("J", l, r, []int{1}, []int{0})
		}
	})
	b.Run("delta", func(b *testing.B) {
		const batch, restart = 256, 64
		deltas := make([]*Relation, restart)
		for k := range deltas {
			deltas[k] = spanRelation(int64(100+k), 2, batch, 14)
		}
		var resident *Relation
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%restart == 0 {
				b.StopTimer()
				resident = r.Clone()
				resident.IndexOn(0)
				b.StartTimer()
			}
			d := resident.AbsorbNew(deltas[i%restart], "Δ")
			HashJoin("J", d, resident, []int{1}, []int{0})
		}
	})
}
