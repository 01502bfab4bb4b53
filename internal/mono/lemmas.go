package mono

import (
	"mpclogic/internal/rel"
)

// This file holds the bounded check of the component property behind
// the coordination-free strategies of Section 5.2. The checkers of
// Lemma 5.7 (queries in Mdistinct are monotone with respect to induced
// subinstances) and Lemma 5.11 (queries in Mdisjoint are monotone with
// respect to components) live with the tests that call them.

// DistributesOverComponents checks Q(I) = ∪_J Q(J) over the components
// J of I, the property characterizing connected Datalog programs
// (Ameloot et al., ICDT 2015).
func DistributesOverComponents(q Query, schema rel.Schema, universe []rel.Value) (bool, *rel.Instance) {
	var bad *rel.Instance
	forEachInstance(schema, universe, func(i *rel.Instance) bool {
		union := rel.NewInstance()
		for _, j := range rel.Components(i) {
			union.AddAll(q(j))
		}
		if !union.Equal(q(i)) {
			bad = i.Clone()
			return false
		}
		return true
	})
	return bad == nil, bad
}

// forEachInstance is deliberately not cq.EachInstance: mono is about
// arbitrary queries over instances and imports only rel, its bound is a
// bug-only panic rather than a refusal, and the hierarchy checker in
// mono.go enumerates pairs of instances with a memo, not single ones.
func forEachInstance(schema rel.Schema, universe []rel.Value, fn func(*rel.Instance) bool) {
	facts := schema.AllFacts(universe)
	n := uint(len(facts))
	if n > 20 {
		panic("mono: instance space too large")
	}
	for mask := uint64(0); mask < 1<<n; mask++ {
		inst := rel.NewInstance()
		for b := uint(0); b < n; b++ {
			if mask&(1<<b) != 0 {
				inst.Add(facts[b])
			}
		}
		if !fn(inst) {
			return
		}
	}
}
