package rel

// Relation is a named, fixed-arity set of tuples.
//
// The implementation is an open-addressing hash set over a flat value
// arena: tuple i occupies arena[i*Arity : (i+1)*Arity], and slots is a
// power-of-two linear-probing table mapping hash positions to tuple
// indices, with hashes[i] caching tuple i's table hash (tableHash — the
// table's own, not the placement hash Tuple.Hash) beside it.
// Membership is decided by the cached 64-bit hash first and verified
// with Tuple.Equal, so no per-tuple string key or per-tuple map entry
// is ever allocated. A relation only grows: there is no removal, so
// stored index i names tuple i for the relation's whole life, and a
// rehash or a growth never renumbers. Growth copies values into a
// fresh arena, so Tuple views handed out earlier stay valid.
//
// The table — slots and cached hashes together — is a cache like the
// sorted enumeration and the join indexes: AddDistinct and
// UnionDistinct, whose caller vouches that the tuples are not in the
// relation yet, only append to the arena, hashing nothing, and the
// table is built over the stored tuples by the first membership
// question — Add, Contains, Equal, UnionWith or AbsorbNew into the
// relation. That build hashes every stored tuple once and checks
// what was vouched: a duplicate panics. From then on every insert
// caches its tuple's hash. Each, Tuples, Len, the join indexes and the
// encoders read the arena alone, so a relation that is only split,
// shipped and scanned never builds a table, and stores 8·Arity bytes
// per tuple against 8·Arity + 8 and the slots with one. Building
// it is a write, so, like the rest of Relation, a lookup is not safe
// for concurrent use.
//
// Enumeration contract: Each visits tuples in unspecified (insertion)
// order; Tuples returns the lexicographically sorted enumeration and
// caches it until the next insert, so repeated serialization of an
// unchanged relation does not re-sort.
//
// A relation also records whether its arena is strictly ascending in
// Tuple.Compare order. Every append compares the new tuple with the
// last stored one, and the first that is not above it clears the
// record; growth and Clone keep it. Tuples of an ascending relation is
// its arena, with no sort, and the wire decoder appends an ascending
// run without a table, since strict ascent already proves the run
// distinct.
type Relation struct {
	Name  string
	Arity int

	arena  []Value  // flat tuple storage
	count  int      // stored tuples: the arena holds count·Arity values
	slots  []int32  // open-addressing table: stored index + 1, 0 = empty; nil = not built
	hashes []uint64 // with the table: cached tableHash, parallel to stored tuples

	ascending bool // the arena is strictly ascending in Tuple.Compare order

	sorted []Tuple  // cached sorted enumeration; nil = invalid
	idx    []*Index // cached join indexes, maintained on insert
}

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

// newSlots returns an empty table of size slots. A slot holds a stored
// index plus one, so the zero make clears it to is the empty slot and a
// build writes each slot at most once.
func newSlots(size int) []int32 { return make([]int32, size) }

// NewRelation returns an empty relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{Name: name, Arity: arity}
}

// NewRelationSize returns an empty relation whose storage is pre-sized
// to hold size tuples without growing. The table is not built until it
// is asked for; it is then sized for the storage's capacity.
func NewRelationSize(name string, arity, size int) *Relation {
	r := &Relation{Name: name, Arity: arity}
	if size > 0 {
		r.arena = make([]Value, 0, size*arity)
	}
	return r
}

// room returns how many tuples the arena holds before it must grow.
func (r *Relation) room() int {
	if r.Arity == 0 {
		return r.count
	}
	return cap(r.arena) / r.Arity
}

// hashOf returns stored tuple i's table hash: the cached one when the
// table is built, computed otherwise.
func (r *Relation) hashOf(i int) uint64 {
	if r.slots != nil {
		return r.hashes[i]
	}
	return tableHash(r.tupleAt(int32(i)))
}

// tupleAt returns a view of stored tuple i. The view aliases the arena;
// tuples are immutable once added, so the view stays valid across
// growth (which copies into fresh storage).
func (r *Relation) tupleAt(i int32) Tuple {
	off := int(i) * r.Arity
	return Tuple(r.arena[off : off+r.Arity : off+r.Arity])
}

// table builds the slot table if stored tuples have none: the first
// membership question after appends.
func (r *Relation) table() {
	if r.slots == nil && r.count > 0 {
		r.rehash(r.count)
	}
}

// find returns the stored index of the tuple with hash h equal to t,
// or -1 if absent.
func (r *Relation) find(h uint64, t Tuple) int32 {
	r.table()
	if len(r.slots) == 0 {
		return -1
	}
	mask := uint64(len(r.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		v := r.slots[s] - 1
		if v < 0 {
			return -1
		}
		if r.hashes[v] == h && r.tupleAt(v).Equal(t) {
			return v
		}
	}
}

// insert adds t (copying its values into the arena) under hash h,
// reporting whether it was new.
func (r *Relation) insert(h uint64, t Tuple) bool {
	if r.slots == nil {
		// The first table: sized for the storage, so a pre-sized
		// relation fills without a rehash.
		r.rehash(max(r.count+1, r.room()))
	} else if (r.count+1)*4 > len(r.slots)*3 {
		r.rehash(r.count + 1)
	}
	mask := uint64(len(r.slots) - 1)
	s := h & mask
	for v := r.slots[s] - 1; v >= 0; v = r.slots[s] - 1 {
		if r.hashes[v] == h && r.tupleAt(v).Equal(t) {
			return false
		}
		s = (s + 1) & mask
	}
	r.slots[s] = int32(r.count) + 1
	r.hashes = append(r.hashes, h)
	r.push(t)
	return true
}

// push stores t as the newest tuple, leaving the table to the caller:
// insert has placed it and cached its hash, and a relation with no
// table yet hashes it when the table is built.
//
// When the arena has room, push reslices it in place and copies t in:
// a self-assignment `r.arena = r.arena[:m]` stores only the length, so
// no write barrier fires per tuple while the collector marks, where an
// append would re-store the arena's pointer into the heap Relation on
// every call. Only the growth branch appends.
func (r *Relation) push(t Tuple) {
	i := int32(r.count)
	if i == 0 {
		r.ascending = true
	} else if r.ascending && !r.above(t) {
		r.ascending = false
	}
	if n := len(r.arena); n+len(t) <= cap(r.arena) {
		r.arena = r.arena[:n+len(t)]
		copy(r.arena[n:], t)
	} else {
		r.arena = append(r.arena, t...)
	}
	r.count++
	// The sorted enumeration is invalid, but cached join indexes stay
	// live — the new tuple joins their buckets instead of a rebuild, and
	// no other write renumbers what they hold. This keeps repeated delta
	// joins against a growing resident relation at O(|Δ|) per round. The
	// guard spares a pointer write — a write barrier while the collector
	// marks — per tuple of a bulk insert.
	if r.sorted != nil {
		r.sorted = nil
	}
	for _, ix := range r.idx {
		ix.inserted(i)
	}
}

// above reports whether t is above the last stored tuple; r must hold
// one.
func (r *Relation) above(t Tuple) bool {
	return t.Compare(r.tupleAt(int32(r.count-1))) > 0
}

// insertDistinct inserts t, which the caller vouches is not in r, under
// hash h into r's built table: the probe holds the caller to its word.
func (r *Relation) insertDistinct(h uint64, t Tuple) {
	if !r.insert(h, t) {
		panic("rel: duplicate tuple added as distinct to " + r.Name)
	}
}

// rehash rebuilds the table to hold at least n tuples. It never
// renumbers the stored tuples, so the cached join indexes and sorted
// enumeration stay valid. The first build hashes every stored tuple,
// into storage sized like the arena's; over tuples that were appended
// with no table, it is the check that they are distinct: a duplicate
// panics, naming the relation.
func (r *Relation) rehash(n int) {
	n = max(n, r.count)
	if r.slots == nil {
		r.hashes = make([]uint64, r.count, max(n, r.room()))
		for i := range r.hashes {
			r.hashes[i] = tableHash(r.tupleAt(int32(i)))
		}
	}
	size := tableSizeFor(n)
	slots := newSlots(size)
	mask := uint64(size - 1)
	for i, h := range r.hashes {
		s := h & mask
		for v := slots[s] - 1; v >= 0; v = slots[s] - 1 {
			if r.hashes[v] == h && r.tupleAt(v).Equal(r.tupleAt(int32(i))) {
				panic("rel: duplicate tuple in " + r.Name)
			}
			s = (s + 1) & mask
		}
		slots[s] = int32(i) + 1
	}
	r.slots = slots
}

// grow pre-sizes the tuple storage, and the table and its hashes if it
// is built, for n total tuples.
func (r *Relation) grow(n int) {
	if r.slots != nil && tableSizeFor(n) > len(r.slots) {
		r.rehash(n)
	}
	// The storage hints apply even when the table is already large
	// enough, or EnsureRelationSize's pre-sizing contract would silently
	// degrade to incremental appends. Growth is at least geometric so a
	// hint that creeps up call after call (the shape of per-round inbox
	// sizing) keeps amortized-O(1) appends instead of copying on every
	// call.
	r.arena = withCap(r.arena, n*r.Arity)
	if r.slots != nil {
		r.hashes = withCap(r.hashes, n)
	}
}

// withCap returns s with room for n elements: s itself if it has it,
// and otherwise a copy whose capacity is at least n and at least double
// s's.
func withCap[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	out := make([]T, len(s), max(n, 2*cap(s)))
	copy(out, s)
	return out
}

// Reserve pre-grows r to hold n more tuples without rehashing: what
// NewRelationSize does for a new relation, for one that already exists.
func (r *Relation) Reserve(n int) { r.grow(r.count + n) }

// Add inserts t, reporting whether it was new. Add panics if the arity
// is wrong: arity errors are programming errors, not data errors.
func (r *Relation) Add(t Tuple) bool {
	if len(t) != r.Arity {
		panic("rel: arity mismatch in " + r.Name)
	}
	return r.insert(tableHash(t), t)
}

// AddDistinct adds t, which the caller vouches is not in r — a tuple of
// a set being dealt or routed, each to a destination once — without
// asking the table: with none built it only appends, and the build that
// the next membership question triggers checks the vouch, panicking on
// a duplicate. Like Add, it panics if the arity is wrong.
func (r *Relation) AddDistinct(t Tuple) {
	if len(t) != r.Arity {
		panic("rel: arity mismatch in " + r.Name)
	}
	if vouchCheck {
		checkVouch(r, t, "AddDistinct")
	}
	if r.slots == nil {
		r.push(t)
	} else {
		r.insertDistinct(tableHash(t), t)
	}
}

// Contains reports whether t is in the relation.
func (r *Relation) Contains(t Tuple) bool {
	return r.find(tableHash(t), t) >= 0
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.count }

// Each calls fn for every tuple in unspecified order; fn must not
// mutate the relation. Iteration stops early if fn returns false.
func (r *Relation) Each(fn func(Tuple) bool) {
	for i := range r.count {
		if !fn(r.tupleAt(int32(i))) {
			return
		}
	}
}

// Tuples returns all tuples in deterministic lexicographic order.
// Materialized enumeration feeds serialization and distribution, so it
// must be byte-stable across runs; order-free single-pass access for
// hot local computation is Each. The sorted enumeration is cached until
// the next insert; callers must not modify the returned slice's
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
		count:  r.count,
		slots:  append([]int32(nil), r.slots...),
		hashes: append([]uint64(nil), r.hashes...),

		ascending: r.ascending,
	}
}

// UnionWith adds every tuple of o into r; o must have the same arity.
// It returns the number of tuples that were new. The hashes o's table
// caches are reused, and r is pre-grown to the combined size.
func (r *Relation) UnionWith(o *Relation) int {
	if r.Arity != o.Arity && o.Len() > 0 {
		panic("rel: arity mismatch in union of " + r.Name)
	}
	if o.count == 0 {
		return 0
	}
	r.grow(r.count + o.count)
	added := 0
	for i := range o.count {
		if r.insert(o.hashOf(i), o.tupleAt(int32(i))) {
			added++
		}
	}
	return added
}

// UnionDistinct adds every tuple of o into r, like UnionWith, for a
// caller that vouches that no tuple of o is in r: each is added as by
// AddDistinct, under the hash o's table caches if r has a table to
// insert into, and r's storage is pre-grown to the combined size.
func (r *Relation) UnionDistinct(o *Relation) {
	if r.Arity != o.Arity && o.Len() > 0 {
		panic("rel: arity mismatch in union of " + r.Name)
	}
	r.grow(r.count + o.count)
	for i := range o.count {
		t := o.tupleAt(int32(i))
		if vouchCheck {
			checkVouch(r, t, "UnionDistinct")
		}
		if r.slots == nil {
			r.push(t)
		} else {
			r.insertDistinct(o.hashOf(i), t)
		}
	}
}

// AbsorbNew adds every tuple of o into r (like UnionWith) and returns
// the genuinely new ones as a fresh relation named name, which has no
// table. The hashes o's table caches are reused and both r and the
// result are pre-sized, so folding a small delta into a large resident
// relation costs O(|o|), not O(|r|) — the operation behind delta
// rounds' receiver-side fold. A nil or empty o returns an empty
// relation of r's arity.
func (r *Relation) AbsorbNew(o *Relation, name string) *Relation {
	if o == nil || o.count == 0 {
		return NewRelation(name, r.Arity)
	}
	if r.Arity != o.Arity {
		panic("rel: arity mismatch absorbing into " + r.Name)
	}
	out := NewRelationSize(name, r.Arity, o.count)
	r.grow(r.count + o.count)
	for i := range o.count {
		if t := o.tupleAt(int32(i)); r.insert(o.hashOf(i), t) {
			if vouchCheck {
				checkVouch(out, t, "AbsorbNew")
			}
			out.push(t) // new to r, so new to out
		}
	}
	return out
}

// Equal reports whether r and o contain exactly the same tuples. It
// asks o's table, and reuses the hashes r's caches if it has one.
func (r *Relation) Equal(o *Relation) bool {
	if r.Len() != o.Len() || r.Arity != o.Arity {
		return false
	}
	for i := range r.count {
		if o.find(r.hashOf(i), r.tupleAt(int32(i))) < 0 {
			return false
		}
	}
	return true
}
