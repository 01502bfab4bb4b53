package rel

import (
	"bytes"
	"slices"
	"sort"
	"strings"
	"testing"
)

// FuzzRelation drives the open-addressed tuple table through an
// arbitrary operation sequence decoded from the fuzz input and checks
// it against a plain map-based set after every operation. The value
// domain is kept tiny (7 values, arity 2 → 49 tuples) so the fuzzer
// constantly revisits slots and exercises the duplicate-probe, growth
// and rehash paths that a sparse domain would never hit. A relation
// only grows, so there is no removal to drive.
//
// Two relations take the sequence side by side. The first input byte
// picks how many of the next bytes seed them: the eager one by Add, the
// appended one by AddDistinct of each distinct seed tuple, which leaves
// its table unbuilt. The eager relation is then the oracle for every
// operation on the appended one — the same answers, the same Each order
// and the same encoding — and an operation that asks no membership
// question must leave an unbuilt table unbuilt. The relation-valued
// operations (Equal, UnionWith, AbsorbNew, UnionDistinct) take an
// argument with no table on the appended side and its eager twin on
// the other, and must not build the argument's table unless they ask
// it. After every operation both relations' Tuples must be the
// oracle's Each sorted by Tuple.Compare, whichever way it was
// computed: read off an arena still marked ascending, or sorted. Two
// storage laws hold after every operation too: the arena holds exactly
// Len()·Arity values (a rejected duplicate stores nothing), and a
// relation caches a tuple's hash only in its table: none while the
// table is unbuilt, and one per stored tuple once it is built.
func FuzzRelation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 1, 0, 2, 0, 1, 1}) // add/reserve churn on one tuple
	f.Add([]byte{0, 9, 0, 18, 0, 27, 0, 36, 1, 9, 1, 18, 0, 9})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244})
	f.Add([]byte{6, 3, 10, 17, 3, 24, 31, 4, 0, 8, 10, 7, 38, 2, 17, 5, 40, 1, 10, 3, 0})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 7, 9, 8, 2, 6, 11, 2, 3, 1, 2, 7, 30})
	// Ascending seeds, then: reserve and append the last again; append
	// below the run; reserve, churn, append above.
	f.Add([]byte{4, 0, 8, 16, 24, 1, 24, 7, 24, 8, 0})
	f.Add([]byte{3, 1, 9, 17, 7, 2, 8, 0, 0, 40, 8, 0})
	f.Add([]byte{4, 0, 8, 16, 24, 1, 24, 1, 16, 1, 8, 7, 32, 8, 0})
	// Table-less arguments: UnionDistinct, UnionWith and AbsorbNew into
	// the unbuilt relation, then Equal.
	f.Add([]byte{2, 3, 10, 9, 20, 9, 3, 5, 30, 6, 40, 3, 0, 3, 11})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tuple := func(v byte) Tuple { return Tuple{Value(v % 7), Value((v / 7) % 7)} }
		eager := NewRelation("F", 2)
		appended := NewRelation("F", 2)
		ref := map[string]Tuple{}
		if len(ops) > 0 {
			n := int(ops[0]) % len(ops)
			for _, v := range ops[1 : 1+n] {
				tup := tuple(v)
				eager.Add(tup)
				if _, ok := ref[tup.Key()]; !ok {
					appended.AddDistinct(tup)
					ref[tup.Key()] = tup
				}
			}
			ops = ops[1+n:]
			if appended.slots != nil {
				t.Fatal("AddDistinct built a table")
			}
		}
		// twins returns two relations holding ts in order: one filled by
		// Add, one by AddDistinct with no table.
		twins := func(ts []Tuple) (eager, flat *Relation) {
			eager, flat = NewRelation("O", 2), NewRelation("O", 2)
			for _, u := range ts {
				eager.Add(u)
				flat.AddDistinct(u)
			}
			return eager, flat
		}
		encoding := func(r *Relation) []byte {
			inst := NewInstance()
			inst.SetRelation(r)
			return EncodeInstance(inst)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op := ops[i] % 10
			v := ops[i+1]
			tup := tuple(v)
			key := tup.Key()
			_, inRef := ref[key]
			unbuilt := appended.slots == nil
			asks := true
			switch op {
			case 0:
				got, want := appended.Add(tup), eager.Add(tup)
				if got != want || got != !inRef {
					t.Fatalf("op %d: Add(%v) = %v, eager %v, reference says %v", i, tup, got, want, !inRef)
				}
				ref[key] = tup
			case 1:
				appended.Reserve(int(v))
				eager.Reserve(int(v))
				asks = false
			case 2:
				if got, want := appended.Contains(tup), eager.Contains(tup); got != want || got != inRef {
					t.Fatalf("op %d: Contains(%v) = %v, eager %v, reference says %v", i, tup, got, want, inRef)
				}
			case 3:
				if !appended.Equal(eager) || !eager.Equal(appended) {
					t.Fatalf("op %d: the relations are not Equal", i)
				}
				// The oracle's tuples, the last replaced by tup when tup is
				// new: an equal or an unequal argument of the same length.
				ts := eachTuples(eager)
				if len(ts) > 0 && !inRef {
					ts[len(ts)-1] = tup
				}
				twin, flat := twins(ts)
				want := eager.Equal(twin)
				if flat.Equal(eager) != want || eager.Equal(flat) != want {
					t.Fatalf("op %d: Equal with a table-less side differs from %v", i, want)
				}
			case 4:
				appended, eager = appended.Clone(), eager.Clone()
				asks = false
			case 5, 6, 9:
				var ts []Tuple
				for _, u := range []Tuple{tup, tuple(v + 1)} {
					if _, in := ref[u.Key()]; op != 9 || !in {
						ts = append(ts, u)
					}
				}
				o, flat := twins(ts)
				for _, u := range ts {
					ref[u.Key()] = u
				}
				switch op {
				case 5:
					if got, want := appended.UnionWith(flat), eager.UnionWith(o); got != want {
						t.Fatalf("op %d: UnionWith added %d, eager %d", i, got, want)
					}
				case 6:
					got, want := appended.AbsorbNew(flat, "N"), eager.AbsorbNew(o, "N")
					if !equalLists(eachTuples(got), eachTuples(want)) || !got.Equal(want) {
						t.Fatalf("op %d: AbsorbNew gave %v, eager %v", i, eachTuples(got), eachTuples(want))
					}
				case 9:
					appended.UnionDistinct(flat)
					eager.UnionWith(o)
					asks = false
				}
				if flat.slots != nil {
					t.Fatalf("op %d (%d) built its argument's table", i, op)
				}
			case 7:
				if !inRef {
					appended.AddDistinct(tup)
					eager.Add(tup)
					ref[key] = tup
				}
				asks = false
			case 8:
				got := probeTuples(NewIndex(appended, []int{1}, nil), tup, []int{0})
				want := probeTuples(NewIndex(eager, []int{1}, nil), tup, []int{0})
				if !equalLists(got, want) {
					t.Fatalf("op %d: probe of %v found %v, eager %v", i, tup, got, want)
				}
				if !equalLists(appended.Tuples(), eager.Tuples()) {
					t.Fatalf("op %d: Tuples differ", i)
				}
				if !bytes.Equal(encoding(appended), encoding(eager)) {
					t.Fatalf("op %d: encodings differ", i)
				}
				asks = false
			}
			if !asks && unbuilt && appended.slots != nil {
				t.Fatalf("op %d (%d) built the table", i, op)
			}
			for _, r := range []*Relation{appended, eager} {
				if len(r.arena) != r.Len()*r.Arity {
					t.Fatalf("op %d (%d): the arena holds %d values for %d tuples", i, op, len(r.arena), r.Len())
				}
				if r.slots == nil && r.hashes != nil {
					t.Fatalf("op %d (%d): %d hashes cached with no table", i, op, len(r.hashes))
				}
				if (r.slots != nil || r == eager) && len(r.hashes) != r.Len() {
					t.Fatalf("op %d (%d): %d hashes cached for %d stored tuples", i, op, len(r.hashes), r.Len())
				}
			}
			if appended.Len() != len(ref) || eager.Len() != len(ref) {
				t.Fatalf("op %d: Len() = %d, eager %d, reference has %d", i, appended.Len(), eager.Len(), len(ref))
			}
			if !equalLists(eachTuples(appended), eachTuples(eager)) {
				t.Fatalf("op %d: Each order %v, eager %v", i, eachTuples(appended), eachTuples(eager))
			}
			sorted := referenceOrder(eager)
			if !equalLists(appended.Tuples(), sorted) || !equalLists(eager.Tuples(), sorted) {
				t.Fatalf("op %d: Tuples %v and eager %v, sorted oracle %v", i, appended.Tuples(), eager.Tuples(), sorted)
			}
		}

		// Final-state agreement: contents, iteration, sorted order,
		// and the clone/equal pair.
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, r := range []*Relation{appended, eager} {
			var gotKeys []string
			for _, tup := range r.Tuples() {
				gotKeys = append(gotKeys, tup.Key())
			}
			if !slices.Equal(gotKeys, keys) {
				t.Fatalf("Tuples %q, reference %q", gotKeys, keys)
			}
			if cl := r.Clone(); !cl.Equal(r) {
				t.Fatal("Clone not Equal to original")
			}
			rebuilt := NewRelation("F", 2)
			for _, tup := range ref {
				rebuilt.Add(tup)
			}
			if !rebuilt.Equal(r) {
				t.Fatal("relation differs from rebuild of reference set")
			}
		}
	})
}

// TestAddDistinctDuplicatePanics: a tuple vouched distinct that is not
// panics, naming the relation, when the table is built over it — by
// the first membership question — or at once when the table is built
// already. Every question that builds the table checks: Add, Contains,
// UnionWith, AbsorbNew and Equal.
func TestAddDistinctDuplicatePanics(t *testing.T) {
	wantPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "duplicate") || !strings.Contains(msg, "Dup") {
				t.Fatalf("%s: recovered %q, want a duplicate panic naming Dup", what, msg)
			}
		}()
		fn()
	}
	for name, ask := range map[string]func(*Relation){
		"Add":      func(r *Relation) { r.Add(Tuple{9}) },
		"Contains": func(r *Relation) { r.Contains(Tuple{1}) },
		"UnionWith": func(r *Relation) {
			r.UnionWith(FromFacts(NewFact("O", 9)).Relation("O"))
		},
		"AbsorbNew": func(r *Relation) {
			r.AbsorbNew(FromFacts(NewFact("O", 9)).Relation("O"), "N")
		},
		"Equal": func(r *Relation) {
			o := NewRelation("O", 1)
			for v := range 3 {
				o.Add(Tuple{Value(v)})
			}
			o.Equal(r)
		},
	} {
		r := NewRelationSize("Dup", 1, 4)
		r.AddDistinct(Tuple{1})
		r.AddDistinct(Tuple{2})
		r.AddDistinct(Tuple{1})
		if r.slots != nil || r.Len() != 3 {
			t.Fatalf("%s: AddDistinct checked its vouch before a question was asked", name)
		}
		r.Each(func(Tuple) bool { return true })
		r.Tuples()
		if r.slots != nil {
			t.Fatalf("%s: a scan built the table", name)
		}
		wantPanic(name, func() { ask(r) })
	}
	r := NewRelation("Dup", 1)
	r.Add(Tuple{1})
	wantPanic("AddDistinct on a built table", func() { r.AddDistinct(Tuple{1}) })
}

// TestFirstTableSizesItsHashes: a relation caches no hash until its
// table is built, and the first build sizes the hashes for the storage
// in one allocation — for a pre-sized relation, one Reserved while
// empty, and one filled by vouched appends first — so Adds up to the
// reserved size never grow them.
func TestFirstTableSizesItsHashes(t *testing.T) {
	const n = 64
	reserved := NewRelation("R", 2)
	reserved.Reserve(n)
	appended := NewRelationSize("R", 2, n)
	for v := range 10 {
		appended.AddDistinct(Tuple{Value(v), 0})
	}
	for name, r := range map[string]*Relation{
		"NewRelationSize":     NewRelationSize("R", 2, n),
		"Reserve while empty": reserved,
		"after appends":       appended,
	} {
		if r.hashes != nil {
			t.Fatalf("%s: %d hashes cached before the table is built", name, len(r.hashes))
		}
		r.Add(Tuple{-1, -1})
		first := cap(r.hashes)
		for v := 100; r.Len() < n; v++ {
			r.Add(Tuple{Value(v), 1})
		}
		if first < n || cap(r.hashes) != first {
			t.Errorf("%s: hashes sized for %d at the first build, %d after %d tuples", name, first, cap(r.hashes), n)
		}
	}
}
