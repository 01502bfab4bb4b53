package cq

import (
	"fmt"
	"math/rand"
	"testing"

	"mpclogic/internal/rel"
)

// isMinimalReference is the CQ-only body IsMinimal had while the
// union-minimality test was a second copy in package pc. It is kept as
// the slow-form oracle (*UCQ).IsMinimal's one-disjunct case is held
// equal to.
func isMinimalReference(q *CQ, v Valuation) (bool, error) {
	if q.HasNegation() {
		return false, fmt.Errorf("cq: minimal valuations undefined for CQ¬")
	}
	if !v.SatisfiesDiseq(q) {
		return false, fmt.Errorf("cq: valuation violates inequalities of the query")
	}
	required := v.RequiredInstance(q)
	head := v.Derives(q)
	universe := required.ADom().Sorted()

	found := false
	AllValuations(q.Vars(), universe, func(w Valuation) bool {
		if !w.SatisfiesDiseq(q) {
			return true
		}
		if !w.Derives(q).Equal(head) {
			return true
		}
		wReq := w.RequiredInstance(q)
		if wReq.SubsetOf(required) && wReq.Len() < required.Len() {
			found = true
			return false
		}
		return true
	})
	return !found, nil
}

// IsMinimal — now the one-disjunct case of (*UCQ).IsMinimal — against
// its former body, on every inequality-satisfying valuation over
// {7, 0, 1, 2} of the Figure 1 queries, the serving set A–F, and 240
// seeded random queries; and EachMinimalValuation must stream exactly
// the valuations the oracle accepts, in enumeration order.
func TestIsMinimalMatchesReference(t *testing.T) {
	d := rel.NewDict()
	var qs []*CQ
	for _, src := range []string{
		"H() :- S(x), R(x, x), T(x)",
		"H() :- R(x, x), T(x)",
		"H() :- S(x), R(x, y), T(y)",
		"H() :- R(x, y), T(y)",
		"A(x, z) :- R(x, y), S(y, z)",
		"B(x) :- R(x, y), S(y, z)",
		"C(z, x) :- S(y, z), R(x, y)",
		"D(x, y) :- R(x, y)",
		"E() :- R(x, y), S(y, z)",
		"F(x, z) :- R(x, y), R(y, z)",
	} {
		qs = append(qs, MustParse(d, src))
	}
	r := rand.New(rand.NewSource(23))
	for n := 0; n < 240; n++ {
		q := Random(r, SmallJoins)
		if err := q.Validate(); err != nil {
			t.Fatalf("generator produced %v: %v", q, err)
		}
		qs = append(qs, q)
	}
	universe := []rel.Value{0, 1, 2, 7}
	minimal, dominated := 0, 0
	for _, q := range qs {
		var want []Valuation
		AllValuations(q.Vars(), universe, func(v Valuation) bool {
			if !v.SatisfiesDiseq(q) {
				if _, err := IsMinimal(q, v); err == nil {
					t.Fatalf("IsMinimal(%v, %v) accepted a valuation violating the inequalities", q, v)
				}
				return true
			}
			got, err := IsMinimal(q, v)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := isMinimalReference(q, v)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Fatalf("IsMinimal(%v, %v) = %v, reference says %v", q, v, got, ref)
			}
			if ref {
				want = append(want, v.Clone())
				minimal++
			} else {
				dominated++
			}
			return true
		})
		k := 0
		err := EachMinimalValuation(q, universe, func(v Valuation) bool {
			if k >= len(want) || !v.Equal(want[k]) {
				t.Fatalf("EachMinimalValuation(%v) streamed %v at position %d; the reference's minimal valuations are %v", q, v, k, want)
			}
			k++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if k != len(want) {
			t.Fatalf("EachMinimalValuation(%v) streamed %d valuations, want %d", q, k, len(want))
		}
	}
	if minimal == 0 || dominated == 0 {
		t.Fatalf("%d minimal, %d dominated valuations: one verdict is untested", minimal, dominated)
	}
}
