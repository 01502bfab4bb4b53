package cq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mpclogic/internal/rel"
)

// The positional search against plain enumeration on seeded random
// queries. Each over a universe with fresh values must yield, in order,
// the first valuation of every renaming class of the fresh values that
// the full enumeration yields, and each Point must spell the valuation
// and facts the map form computes. Covers must agree with "some
// inequality-satisfying (and union-minimal) valuation over the universe
// requires every target fact".
func TestSearchMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	fixed := rel.NewValueSet(0, 7)
	values := []rel.Value{0, 7, 100, 101, 102} // 100–102 fresh: no query has them
	universe := Universe{Values: values, Fixed: fixed}
	classes, covered, uncovered := 0, 0, 0
	for n := 0; n < 120; n++ {
		q, qp := Random(r, SmallJoins), Random(r, SmallJoins)
		src, dst := NewSearch(single(q)), NewSearch(single(qp))
		for _, minimalOnly := range []bool{false, true} {
			var want []Valuation
			seen := map[string]bool{}
			single(qp).EachValuation(qp, values, minimalOnly, func(v Valuation) bool {
				if k := renamingClass(qp, v, fixed); !seen[k] {
					seen[k] = true
					want = append(want, v.Clone())
				}
				return true
			})
			k := 0
			dst.Each(0, universe, minimalOnly, func(p *Point) bool {
				v := p.Valuation()
				if k >= len(want) || !v.Equal(want[k]) {
					t.Fatalf("Each(%v, minimal=%v) visited %v at %d; the classes' first valuations are %v", qp, minimalOnly, v, k, want)
				}
				if fmt.Sprint(p.Facts()) != fmt.Sprint(v.RequiredFacts(qp)) {
					t.Fatalf("Point %v of %v: facts %v, want %v", v, qp, p.Facts(), v.RequiredFacts(qp))
				}
				if !slices.Equal(p.ADom().Sorted(), v.RequiredInstance(qp).ADom().Sorted()) {
					t.Fatalf("Point %v of %v: adom %v", v, qp, p.ADom())
				}
				k++

				target := v.RequiredInstance(qp)
				base := target.ADom().Union(fixed)
				inner := append(base.Sorted(), 200, 201, 202)
				got := src.Covers(0, p, Universe{Values: inner, Fixed: base}, minimalOnly)
				ref := false
				AllValuations(q.Vars(), inner, func(w Valuation) bool {
					ref = w.SatisfiesDiseq(q) && target.SubsetOf(w.RequiredInstance(q)) &&
						(!minimalOnly || single(q).IsMinimal(q, w))
					return !ref
				})
				if got != ref {
					t.Fatalf("Covers(%v, %v of %v, minimal=%v) = %v, enumeration says %v", q, v, qp, minimalOnly, got, ref)
				}
				if got {
					covered++
				} else {
					uncovered++
				}
				return true
			})
			if k != len(want) {
				t.Fatalf("Each(%v, minimal=%v) visited %d valuations, want %d", qp, minimalOnly, k, len(want))
			}
			classes += k
		}
	}
	if classes == 0 || covered == 0 || uncovered == 0 {
		t.Fatalf("%d classes, %d covered and %d uncovered points: a verdict is untested", classes, covered, uncovered)
	}
}

// renamingClass names v's class under permutations of the values
// outside fixed: those values renumbered by first occurrence in
// Vars() order.
func renamingClass(q *CQ, v Valuation, fixed rel.ValueSet) string {
	var order []rel.Value
	key := ""
	for _, name := range q.Vars() {
		val := v[name]
		if fixed.Contains(val) {
			key += fmt.Sprintf("c%d,", val)
			continue
		}
		i := slices.Index(order, val)
		if i < 0 {
			i = len(order)
			order = append(order, val)
		}
		key += fmt.Sprintf("f%d,", i)
	}
	return key
}
