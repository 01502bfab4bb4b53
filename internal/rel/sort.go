package rel

import (
	"math/bits"
	"slices"
)

// Sorted enumeration: the one computation of a relation's
// Tuple.Compare order. A relation whose arena is ascending is in that
// order already and is read off as it stands. Otherwise it orders the
// stored indices of the tuples (4 bytes each, not 24-byte Tuple
// headers) with a stable LSD radix sort — columns from last to first,
// each column offset by its minimum so only the bits its range spans
// are sorted, and a pass whose digit is constant across the relation
// skipped. Two base cases comparison-sort the same indices instead,
// each beside its column-0 value: too few tuples for the counting
// passes to pay, and columns so wide that the passes would cost more
// than the ~log₂ n comparisons per tuple a comparison sort spends.

const (
	// radixMinTuples is the first base case: below it the comparison
	// sort runs on a stack buffer, so a small enumeration allocates
	// nothing beyond its result. Around 400 tuples the two sorts cost
	// the same.
	radixMinTuples = 512
	// radixDigitBits is the widest digit one counting pass sorts: 2¹¹
	// counters (8 KiB) stay in L1.
	radixDigitBits = 11
)

// radixDigit returns the digit width the radix passes use on r, or 0
// when a base case applies and the comparison sort runs.
func (r *Relation) radixDigit() int {
	n := r.count
	if n < radixMinTuples {
		return 0
	}
	// A digit is at most log₂ n bits wide, so clearing and summing its
	// counters never costs more than the pass's n scatters. A comparison
	// sort makes ~log₂ n comparisons per tuple and a pass costs somewhat
	// more per tuple than one: measured from 384 to 20 000 tuples at
	// arity 2–4, the passes win up to log₂ n − 3 of them.
	logN := bits.Len(uint(n))
	digit, passes := min(radixDigitBits, logN-1), 0
	for c := 0; c < r.Arity; c++ {
		_, width := r.columnSpan(c)
		if passes += (width + digit - 1) / digit; passes > logN-3 {
			return 0
		}
	}
	return digit
}

// keyed is a stored tuple index with its column-0 value beside it, the
// element the comparison base case sorts: most comparisons are decided
// by column 0 and then read no arena at all.
type keyed struct {
	first Value
	i     int32
}

// sortedTuples returns views of r's tuples in Tuple.Compare order
// (signed, lexicographic), the enumeration Tuples caches. An ascending
// relation's arena is already in that order.
func (r *Relation) sortedTuples() []Tuple {
	n, k, arena := r.count, r.Arity, r.arena
	out := make([]Tuple, 0, n)
	if r.ascending {
		for i := range n {
			out = append(out, r.tupleAt(int32(i)))
		}
		return out
	}
	digit := r.radixDigit()
	if digit == 0 {
		var small [radixMinTuples]keyed
		order := small[:0]
		if n > len(small) {
			order = make([]keyed, 0, n)
		}
		for i := range n {
			e := keyed{i: int32(i)}
			if k > 0 {
				e.first = arena[i*k]
			}
			order = append(order, e)
		}
		slices.SortFunc(order, func(a, b keyed) int {
			if a.first != b.first {
				if a.first < b.first {
					return -1
				}
				return 1
			}
			i, j := int(a.i)*k, int(b.i)*k
			for c := 1; c < k; c++ {
				if x, y := arena[i+c], arena[j+c]; x != y {
					if x < y {
						return -1
					}
					return 1
				}
			}
			return 0
		})
		for _, e := range order {
			out = append(out, r.tupleAt(e.i))
		}
		return out
	}
	// One allocation: the indices, the scatter target, the counters.
	all := make([]int32, 2*n+1<<digit)
	src, dst, counts := all[:0:n], all[n:2*n], all[2*n:]
	for i := range n {
		src = append(src, int32(i))
	}
	for c := k - 1; c >= 0; c-- {
		lo, width := r.columnSpan(c)
		if width == 0 {
			continue // a constant column orders nothing
		}
		passes := (width + digit - 1) / digit
		d := (width + passes - 1) / passes // the passes share the width evenly
		mask := uint64(1)<<d - 1
		counts := counts[:1<<d]
		for shift := 0; shift < width; shift += d {
			clear(counts)
			for _, i := range src {
				counts[(uint64(arena[int(i)*k+c])-lo)>>shift&mask]++
			}
			if counts[(uint64(arena[int(src[0])*k+c])-lo)>>shift&mask] == int32(n) {
				continue // every tuple has this digit: the pass is the identity
			}
			var sum int32
			for g, m := range counts {
				counts[g] = sum
				sum += m
			}
			for _, i := range src {
				g := (uint64(arena[int(i)*k+c]) - lo) >> shift & mask
				dst[counts[g]] = i
				counts[g]++
			}
			src, dst = dst, src
		}
	}
	for _, i := range src {
		out = append(out, r.tupleAt(i))
	}
	return out
}

// columnSpan returns column c's minimum over the tuples, as the
// offset every value of the column is taken relative to, and the bit
// width of the column's range. Subtracting the minimum in uint64 maps
// the signed order of the values onto the unsigned order of the
// offsets.
func (r *Relation) columnSpan(c int) (lo uint64, width int) {
	k := r.Arity
	mn, mx := r.arena[c], r.arena[c]
	for i := k + c; i < len(r.arena); i += k {
		v := r.arena[i]
		mn, mx = min(mn, v), max(mx, v)
	}
	return uint64(mn), bits.Len64(uint64(mx) - uint64(mn))
}
