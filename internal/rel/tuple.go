package rel

import "strconv"

// Tuple is an ordered list of domain values.
type Tuple []Value

// Key returns a compact string encoding of t usable as a map key.
// The encoding packs each value as 8 big-endian bytes, so it is
// injective for tuples of the same arity.
func (t Tuple) Key() string {
	b := make([]byte, 8*len(t))
	for i, v := range t {
		u := uint64(v)
		o := 8 * i
		b[o] = byte(u >> 56)
		b[o+1] = byte(u >> 48)
		b[o+2] = byte(u >> 40)
		b[o+3] = byte(u >> 32)
		b[o+4] = byte(u >> 24)
		b[o+5] = byte(u >> 16)
		b[o+6] = byte(u >> 8)
		b[o+7] = byte(u)
	}
	return string(b)
}

// Hash returns the placement hash of the tuple: FNV-1a over the value
// bytes followed by an avalanche finalizer. The finalizer matters:
// without it, tuples differing in a single high byte have hashes with a
// constant 64-bit difference, so their low bits — the ones a mod-p
// partitioner uses — correlate perfectly and loads skew. Its exact
// values are frozen: every route, owner election, grid cell and
// reported load is a function of them. Relation's own hash table does
// not use it; it keys on the cheaper private tableHash.
func (t Tuple) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range t {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= prime
			u >>= 8
		}
	}
	return Mix64(h)
}

// Mix64 is the murmur3 64-bit finalizer: a bijective avalanche mix
// where every input bit affects every output bit. Partitioning code
// should pass composed hash values through it before taking a modulus.
func Mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Equal reports whether t and u have the same arity and values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of t.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Project returns the tuple restricted to the given positions.
func (t Tuple) Project(cols []int) Tuple {
	out := make(Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// ADom returns the set of domain values occurring in t.
func (t Tuple) ADom() ValueSet {
	s := make(ValueSet, len(t))
	for _, v := range t {
		s.Add(v)
	}
	return s
}

// Compare is the three-way form of the total order on tuples:
// lexicographic on values, a proper prefix before its extensions. It
// returns a negative number, zero or a positive number as t sorts
// before, equal to or after u.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if t[i] != u[i] {
			if t[i] < u[i] {
				return -1
			}
			return 1
		}
	}
	return len(t) - len(u)
}

// AppendWith appends the tuple's rendering to dst and returns the
// extended buffer: each value by its symbolic name in d, or as a raw
// number when d is nil. It is the one rendering body; String and
// StringWith are calls of it.
func (t Tuple) AppendWith(dst []byte, d *Dict) []byte {
	dst = append(dst, '(')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		if d == nil {
			dst = strconv.AppendInt(dst, int64(v), 10)
		} else {
			dst = d.AppendName(dst, v)
		}
	}
	return append(dst, ')')
}

// String renders the tuple using raw numeric values.
func (t Tuple) String() string { return string(t.AppendWith(make([]byte, 0, 64), nil)) }
