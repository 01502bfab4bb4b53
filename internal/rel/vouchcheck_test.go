//go:build vouchcheck

package rel

import (
	"strings"
	"testing"
)

// TestVouchCheckIsEager: under the vouchcheck build a vouched append of
// a tuple the relation holds panics at the append — before any
// membership question — naming the relation, the path and the call
// site, with or without a table, while every honest vouch passes.
func TestVouchCheckIsEager(t *testing.T) {
	wantPanic := func(what, path string, fn func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			for _, want := range []string{"duplicate", "Dup", path, "vouchcheck_test.go"} {
				if !strings.Contains(msg, want) {
					t.Errorf("%s: recovered %q, want it to name %q", what, msg, want)
				}
			}
		}()
		fn()
	}
	appended := NewRelation("Dup", 1)
	appended.AddDistinct(Tuple{1})
	appended.AddDistinct(Tuple{2})
	wantPanic("AddDistinct with no table", "AddDistinct", func() { appended.AddDistinct(Tuple{2}) })

	tabled := NewRelation("Dup", 1)
	tabled.Add(Tuple{1})
	tabled.AddDistinct(Tuple{2}) // honest, into a built table
	wantPanic("AddDistinct into a table", "AddDistinct", func() { tabled.AddDistinct(Tuple{1}) })

	union := NewRelation("Dup", 1)
	union.AddDistinct(Tuple{5})
	o := NewRelation("O", 1)
	for v := range 8 {
		o.AddDistinct(Tuple{Value(v)})
	}
	wantPanic("UnionDistinct", "UnionDistinct", func() { union.UnionDistinct(o) })
	if union.Len() != 6 {
		t.Errorf("UnionDistinct stored %d tuples before the duplicate, want 6: the check was not eager", union.Len())
	}

	fresh := NewRelation("Dup", 1)
	fresh.UnionDistinct(o)
	fresh.AbsorbNew(FromFacts(NewFact("O", 9), NewFact("O", 10)).Relation("O"), "N")
	if fresh.Len() != 10 {
		t.Errorf("honest vouches stored %d tuples, want 10", fresh.Len())
	}
	if _, err := DecodeInstance(EncodeInstance(FromFacts(NewFact("R", 1), NewFact("R", 2), NewFact("R", 0)))); err != nil {
		t.Errorf("decoding an honest fragment under vouchcheck: %v", err)
	}
}
