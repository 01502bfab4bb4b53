package rel

import (
	"sort"
	"testing"
)

// FuzzRelation drives the open-addressed tuple table through an
// arbitrary Add/Remove/Contains sequence decoded from the fuzz input
// and checks it against a plain map-based set after every operation.
// The value domain is kept tiny (7 values, arity 2 → 49 tuples) so
// the fuzzer constantly revisits slots and exercises the tombstone
// and rehash paths that a sparse domain would never hit.
func FuzzRelation(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 1, 0, 2, 0, 1, 1}) // add/remove churn on one tuple
	f.Add([]byte{0, 9, 0, 18, 0, 27, 0, 36, 1, 9, 1, 18, 0, 9})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244})
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := NewRelation("F", 2)
		ref := map[string]Tuple{}
		for i := 0; i+1 < len(ops); i += 2 {
			op := ops[i] % 3
			v := ops[i+1]
			tup := Tuple{Value(v % 7), Value((v / 7) % 7)}
			key := tup.Key()
			_, inRef := ref[key]
			switch op {
			case 0:
				if got := r.Add(tup); got != !inRef {
					t.Fatalf("op %d: Add(%v) = %v, reference says %v", i, tup, got, !inRef)
				}
				ref[key] = tup
			case 1:
				if got := r.Remove(tup); got != inRef {
					t.Fatalf("op %d: Remove(%v) = %v, reference says %v", i, tup, got, inRef)
				}
				delete(ref, key)
			case 2:
				if got := r.Contains(tup); got != inRef {
					t.Fatalf("op %d: Contains(%v) = %v, reference says %v", i, tup, got, inRef)
				}
			}
			if r.Len() != len(ref) {
				t.Fatalf("op %d: Len() = %d, reference has %d", i, r.Len(), len(ref))
			}
		}

		// Final-state agreement: contents, iteration, sorted order,
		// and the clone/equal pair.
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var gotKeys []string
		for _, tup := range r.Tuples() {
			gotKeys = append(gotKeys, tup.Key())
		}
		if len(gotKeys) != len(keys) {
			t.Fatalf("Tuples has %d tuples, reference %d", len(gotKeys), len(keys))
		}
		for i := range keys {
			if gotKeys[i] != keys[i] {
				t.Fatalf("tuple %d: %q vs reference %q", i, gotKeys[i], keys[i])
			}
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
	})
}
