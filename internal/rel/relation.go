package rel

// Relation is a named, fixed-arity set of tuples.
//
// The implementation is an open-addressing hash set over a flat value
// arena: tuple i occupies arena[i*Arity : (i+1)*Arity], hashes[i]
// caches its table hash (tableHash — the table's own, not the
// placement hash Tuple.Hash), and slots is a power-of-two
// linear-probing table mapping hash positions to tuple indices.
// Membership is decided by the cached 64-bit hash first and verified
// with Tuple.Equal, so no per-tuple string key or per-tuple map entry
// is ever allocated. Removed tuples are tombstoned (dead[i]) and
// compacted on the next rehash; compaction copies live values into a
// fresh arena, so Tuple views handed out earlier stay valid.
//
// Enumeration contract: Each visits tuples in unspecified (insertion)
// order; Tuples returns the lexicographically sorted enumeration and
// caches it until the next mutation, so repeated serialization of an
// unchanged relation does not re-sort.
type Relation struct {
	Name  string
	Arity int

	arena  []Value  // flat tuple storage
	hashes []uint64 // cached tableHash, parallel to stored tuples
	dead   []bool   // tombstoned tuples awaiting compaction
	slots  []int32  // open-addressing table: index, slotEmpty, or slotTomb
	live   int      // live (non-dead) tuples
	tombs  int      // tombstoned table slots

	sorted []Tuple  // cached sorted enumeration; nil = invalid
	idx    []*Index // cached join indexes, maintained on insert
}

const (
	slotEmpty int32 = -1
	slotTomb  int32 = -2
)

// tableSizeFor returns the smallest power-of-two table that holds n
// entries below the ~0.75 load-factor ceiling.
func tableSizeFor(n int) int {
	size := 8
	for size*3 < n*4 {
		size *= 2
	}
	return size
}

// tableHash is the hash the table keys on: one multiply–xorshift per
// value, then Mix64. It only decides slot positions — never an order,
// a route or a placement (Each walks the arena) — so it is private and
// free to change, unlike Tuple.Hash, whose exact values every route,
// owner election and report is a function of. The xorshift folds each
// product's high half into the low bits the slot mask reads, and Mix64
// avalanches the result; both steps and the multiply are bijections,
// so distinct unary tuples never share a hash.
func tableHash(t Tuple) uint64 {
	h := uint64(tableSeed)
	for _, v := range t {
		h = tableStep(h, v)
	}
	return Mix64(h)
}

// colsHash is tableHash of t's projection onto cols, computed in
// place: the hash a join index keys on.
func colsHash(t Tuple, cols []int) uint64 {
	h := uint64(tableSeed)
	for _, c := range cols {
		h = tableStep(h, t[c])
	}
	return Mix64(h)
}

const tableSeed = 0x243f6a8885a308d3

// tableStep folds one value into a table hash.
func tableStep(h uint64, v Value) uint64 {
	h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

func newSlots(size int) []int32 {
	s := make([]int32, size)
	for i := range s {
		s[i] = slotEmpty
	}
	return s
}

// NewRelation returns an empty relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{Name: name, Arity: arity}
}

// NewRelationSize returns an empty relation pre-sized to hold size
// tuples without growing.
func NewRelationSize(name string, arity, size int) *Relation {
	r := &Relation{Name: name, Arity: arity}
	if size > 0 {
		r.arena = make([]Value, 0, size*arity)
		r.hashes = make([]uint64, 0, size)
		r.dead = make([]bool, 0, size)
		r.slots = newSlots(tableSizeFor(size))
	}
	return r
}

// tupleAt returns a view of stored tuple i. The view aliases the arena;
// tuples are immutable once added, so the view stays valid across
// growth and compaction (both copy into fresh storage).
func (r *Relation) tupleAt(i int32) Tuple {
	off := int(i) * r.Arity
	return Tuple(r.arena[off : off+r.Arity : off+r.Arity])
}

// mutated invalidates enumeration and join-index caches.
func (r *Relation) mutated() {
	r.sorted = nil
	r.idx = nil
}

// find returns the stored index of the tuple with hash h equal to t,
// or -1 if absent.
func (r *Relation) find(h uint64, t Tuple) int32 {
	if len(r.slots) == 0 {
		return -1
	}
	mask := uint64(len(r.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		v := r.slots[s]
		if v == slotEmpty {
			return -1
		}
		if v >= 0 && r.hashes[v] == h && r.tupleAt(v).Equal(t) {
			return v
		}
	}
}

// insert adds t (copying its values into the arena) under hash h,
// reporting whether it was new.
func (r *Relation) insert(h uint64, t Tuple) bool {
	if len(r.slots) == 0 || (r.live+r.tombs+1)*4 > len(r.slots)*3 {
		r.rehash(r.live + 1)
	}
	mask := uint64(len(r.slots) - 1)
	reuse := -1
	s := h & mask
	for {
		v := r.slots[s]
		if v == slotEmpty {
			break
		}
		if v == slotTomb {
			if reuse < 0 {
				reuse = int(s)
			}
		} else if r.hashes[v] == h && r.tupleAt(v).Equal(t) {
			return false
		}
		s = (s + 1) & mask
	}
	i := int32(len(r.hashes))
	r.arena = append(r.arena, t...)
	r.hashes = append(r.hashes, h)
	r.dead = append(r.dead, false)
	if reuse >= 0 {
		r.slots[reuse] = i
		r.tombs--
	} else {
		r.slots[s] = i
	}
	r.live++
	// The sorted enumeration is invalid, but cached join indexes stay
	// live — the new tuple joins their buckets instead of a rebuild. This
	// keeps repeated delta joins against a growing resident relation at
	// O(|Δ|) per round; removal and compaction still drop the caches
	// (mutated / rehash), so buckets never hold dead entries. The guard
	// spares a pointer write — a write barrier while the collector
	// marks — per tuple of a bulk insert.
	if r.sorted != nil {
		r.sorted = nil
	}
	for _, ix := range r.idx {
		ix.inserted(i)
	}
	return true
}

// remove deletes the tuple with hash h equal to t, reporting whether it
// was present.
func (r *Relation) remove(h uint64, t Tuple) bool {
	if len(r.slots) == 0 {
		return false
	}
	mask := uint64(len(r.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		v := r.slots[s]
		if v == slotEmpty {
			return false
		}
		if v >= 0 && r.hashes[v] == h && r.tupleAt(v).Equal(t) {
			r.slots[s] = slotTomb
			r.tombs++
			r.dead[v] = true
			r.live--
			r.mutated()
			if r.tombs*4 > len(r.slots) {
				r.rehash(r.live)
			}
			return true
		}
	}
}

// rehash rebuilds the table to hold at least n tuples, compacting
// tombstoned tuples out of the arena.
func (r *Relation) rehash(n int) {
	if n < r.live {
		n = r.live
	}
	if r.live != len(r.hashes) {
		// Compaction renumbers the stored tuple indices, so cached join
		// indexes (which hold those indices) must be dropped here — not
		// every caller reaches mutated(): grow() never does, and a
		// duplicate Add rehashes before discovering it inserts nothing.
		// The sorted cache survives compaction: its tuple views alias
		// the old arena, which stays valid, and the tuple set is
		// unchanged.
		r.idx = nil
		arena := make([]Value, 0, n*r.Arity)
		hashes := make([]uint64, 0, n)
		for i := range r.hashes {
			if r.dead[i] {
				continue
			}
			arena = append(arena, r.tupleAt(int32(i))...)
			hashes = append(hashes, r.hashes[i])
		}
		r.arena = arena
		r.hashes = hashes
		r.dead = make([]bool, len(hashes), n)
	}
	size := tableSizeFor(n)
	slots := newSlots(size)
	mask := uint64(size - 1)
	for i, h := range r.hashes {
		s := h & mask
		for slots[s] != slotEmpty {
			s = (s + 1) & mask
		}
		slots[s] = int32(i)
	}
	r.slots = slots
	r.tombs = 0
}

// grow pre-sizes the table and tuple storage for n total live tuples.
func (r *Relation) grow(n int) {
	if tableSizeFor(n) > len(r.slots) {
		r.rehash(n)
	}
	// The storage hints apply even when the table is already large
	// enough (e.g. after removals), or EnsureRelationSize's pre-sizing
	// contract would silently degrade to incremental appends. A
	// compacting rehash above already sized them for n. Growth is at
	// least geometric so a hint that creeps up call after call (the
	// shape of per-round inbox sizing) keeps amortized-O(1) appends
	// instead of copying on every call.
	if cap(r.arena) < n*r.Arity {
		arena := make([]Value, len(r.arena), geomCap(n*r.Arity, cap(r.arena)))
		copy(arena, r.arena)
		r.arena = arena
	}
	if cap(r.hashes) < n {
		m := geomCap(n, cap(r.hashes))
		hashes := make([]uint64, len(r.hashes), m)
		copy(hashes, r.hashes)
		r.hashes = hashes
		dead := make([]bool, len(r.dead), m)
		copy(dead, r.dead)
		r.dead = dead
	}
}

// geomCap returns the capacity to grow to for a request of n: at least
// n, and at least double the current capacity.
func geomCap(n, cur int) int {
	if d := 2 * cur; n < d {
		return d
	}
	return n
}

// Reserve pre-grows r to hold n more tuples without rehashing: what
// NewRelationSize does for a new relation, for one that already exists.
func (r *Relation) Reserve(n int) { r.grow(r.live + n) }

// Add inserts t, reporting whether it was new. Add panics if the arity
// is wrong: arity errors are programming errors, not data errors.
func (r *Relation) Add(t Tuple) bool {
	if len(t) != r.Arity {
		panic("rel: arity mismatch in " + r.Name)
	}
	return r.insert(tableHash(t), t)
}

// Contains reports whether t is in the relation.
func (r *Relation) Contains(t Tuple) bool {
	return r.find(tableHash(t), t) >= 0
}

// Remove deletes t, reporting whether it was present.
func (r *Relation) Remove(t Tuple) bool {
	return r.remove(tableHash(t), t)
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.live }

// Each calls fn for every tuple in unspecified order; fn must not
// mutate the relation. Iteration stops early if fn returns false.
func (r *Relation) Each(fn func(Tuple) bool) {
	for i := range r.hashes {
		if r.dead[i] {
			continue
		}
		if !fn(r.tupleAt(int32(i))) {
			return
		}
	}
}

// Tuples returns all tuples in deterministic lexicographic order.
// Materialized enumeration feeds serialization and distribution, so it
// must be byte-stable across runs; order-free single-pass access for
// hot local computation is Each. The sorted enumeration is cached until
// the next mutation; callers must not modify the returned slice's
// elements (appending is safe: the slice is capacity-clipped).
func (r *Relation) Tuples() []Tuple {
	if r.sorted == nil {
		r.sorted = r.sortedTuples()
	}
	return r.sorted[:len(r.sorted):len(r.sorted)]
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	return &Relation{
		Name:   r.Name,
		Arity:  r.Arity,
		arena:  append([]Value(nil), r.arena...),
		hashes: append([]uint64(nil), r.hashes...),
		dead:   append([]bool(nil), r.dead...),
		slots:  append([]int32(nil), r.slots...),
		live:   r.live,
		tombs:  r.tombs,
	}
}

// UnionWith adds every tuple of o into r; o must have the same arity.
// It returns the number of tuples that were new. Cached hashes of o are
// reused, and r is pre-grown to the combined size.
func (r *Relation) UnionWith(o *Relation) int {
	if r.Arity != o.Arity && o.Len() > 0 {
		panic("rel: arity mismatch in union of " + r.Name)
	}
	if o.live == 0 {
		return 0
	}
	r.grow(r.live + o.live)
	added := 0
	for i := range o.hashes {
		if o.dead[i] {
			continue
		}
		if r.insert(o.hashes[i], o.tupleAt(int32(i))) {
			added++
		}
	}
	return added
}

// AbsorbNew adds every tuple of o into r (like UnionWith) and returns
// the genuinely new ones as a fresh relation named name. Cached hashes
// of o are reused and both r and the result are pre-sized, so folding
// a small delta into a large resident relation costs O(|o|), not
// O(|r|) — the operation behind delta rounds' receiver-side fold.
// A nil or empty o returns an empty relation of r's arity.
func (r *Relation) AbsorbNew(o *Relation, name string) *Relation {
	if o == nil || o.live == 0 {
		return NewRelation(name, r.Arity)
	}
	if r.Arity != o.Arity {
		panic("rel: arity mismatch absorbing into " + r.Name)
	}
	out := NewRelationSize(name, r.Arity, o.live)
	r.grow(r.live + o.live)
	for i := range o.hashes {
		if o.dead[i] {
			continue
		}
		t := o.tupleAt(int32(i))
		if r.insert(o.hashes[i], t) {
			out.insert(o.hashes[i], t)
		}
	}
	return out
}

// Equal reports whether r and o contain exactly the same tuples.
func (r *Relation) Equal(o *Relation) bool {
	if r.Len() != o.Len() || r.Arity != o.Arity {
		return false
	}
	for i := range r.hashes {
		if r.dead[i] {
			continue
		}
		if o.find(r.hashes[i], r.tupleAt(int32(i))) < 0 {
			return false
		}
	}
	return true
}

// ADom returns the set of values occurring in the relation.
func (r *Relation) ADom() ValueSet {
	s := make(ValueSet)
	r.Each(func(t Tuple) bool {
		for _, v := range t {
			s.Add(v)
		}
		return true
	})
	return s
}
