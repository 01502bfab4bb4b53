// Package mono model-checks the monotonicity hierarchy of Section 5.2
// of Neven (PODS 2016) over bounded instance spaces:
//
//	M  ⊊  Mdistinct  ⊊  Mdisjoint
//
// where Mdistinct weakens monotonicity to extensions J whose every
// fact carries a value outside adom(I) (queries preserved under
// extensions), and Mdisjoint weakens it further to J sharing no value
// with I. Membership in these classes is undecidable in general; the
// checkers here are exact over all instances drawn from a finite
// universe, which suffices both to verify the paper's membership
// examples and to find the separating witnesses of Figure 2.
package mono

import (
	"fmt"

	"mpclogic/internal/rel"
)

// Query is a generic query: any function from instances to instances.
// Wrappers for CQs and Datalog programs live next to their packages.
type Query func(*rel.Instance) *rel.Instance

// Class is a position in the Figure 2 hierarchy: the strongest of the
// three monotonicity classes known to hold, or None. It is declared
// here because every layer that names a class — the syntactic
// classifier (datalog), the bounded one (core) and the strategy table
// (transducer) — can import mono, and none of them each other.
type Class string

// The classes of Section 5.2, weakest guarantee last. None is the zero
// value: no coordination-free strategy is known.
const (
	None      Class = ""
	M         Class = "M"
	Mdistinct Class = "Mdistinct"
	Mdisjoint Class = "Mdisjoint"
)

// String names the class; None reads "coordination-required".
func (c Class) String() string {
	if c == None {
		return "coordination-required"
	}
	return string(c)
}

// Report is the outcome of a bounded monotonicity check.
type Report struct {
	Holds bool
	// I and J witness the violation when Holds is false:
	// Q(I) ⊄ Q(I ∪ J).
	I, J *rel.Instance
	// Pairs is how many (I, J) pairs were checked.
	Pairs int
}

func (r *Report) String() string {
	if r.Holds {
		return fmt.Sprintf("holds (%d pairs checked)", r.Pairs)
	}
	return fmt.Sprintf("fails: Q(%v) ⊄ Q(%v ∪ %v)", r.I, r.I, r.J)
}

// checker enumerates instance pairs (I, J) with J drawn from the
// facts admitted by admissible(I, f) and reports whether
// Q(I) ⊆ Q(I ∪ J) always holds.
func check(q Query, schema rel.Schema, universe []rel.Value, admissible func(i *rel.Instance, f rel.Fact) bool, singleFactOnly bool) (*Report, error) {
	facts := schema.AllFacts(universe)
	if len(facts) > 20 {
		return nil, fmt.Errorf("mono: instance space 2^%d too large; shrink universe or schema", len(facts))
	}
	n := uint(len(facts))
	rep := &Report{Holds: true}

	// Memoize Q on demand (many masks repeat as I ∪ J).
	outputs := make(map[uint64]*rel.Instance)
	evalMask := func(mask uint64) *rel.Instance {
		if o, ok := outputs[mask]; ok {
			return o
		}
		inst := rel.NewInstance()
		for b := uint(0); b < n; b++ {
			if mask&(1<<b) != 0 {
				inst.Add(facts[b])
			}
		}
		o := q(inst)
		outputs[mask] = o
		return o
	}
	instOf := func(mask uint64) *rel.Instance {
		inst := rel.NewInstance()
		for b := uint(0); b < n; b++ {
			if mask&(1<<b) != 0 {
				inst.Add(facts[b])
			}
		}
		return inst
	}

	for iMask := uint64(0); iMask < 1<<n; iMask++ {
		i := instOf(iMask)
		// Candidate facts for J.
		var cand []uint
		for b := uint(0); b < n; b++ {
			if iMask&(1<<b) != 0 {
				continue
			}
			if admissible(i, facts[b]) {
				cand = append(cand, b)
			}
		}
		outI := evalMask(iMask)
		if singleFactOnly {
			for _, b := range cand {
				rep.Pairs++
				if !outI.SubsetOf(evalMask(iMask | 1<<b)) {
					rep.Holds = false
					rep.I = i
					rep.J = instOf(1 << b)
					return rep, nil
				}
			}
			continue
		}
		// All nonempty subsets of the candidates.
		c := uint(len(cand))
		for jSel := uint64(1); jSel < 1<<c; jSel++ {
			jMask := uint64(0)
			for b := uint(0); b < c; b++ {
				if jSel&(1<<b) != 0 {
					jMask |= 1 << cand[b]
				}
			}
			rep.Pairs++
			if !outI.SubsetOf(evalMask(iMask | jMask)) {
				rep.Holds = false
				rep.I = i
				rep.J = instOf(jMask)
				return rep, nil
			}
		}
	}
	return rep, nil
}

// IsMonotone checks plain monotonicity (class M) over the bounded
// instance space. Single-fact extensions suffice: monotone steps
// compose along any chain I ⊆ I∪{f1} ⊆ … ⊆ I∪J.
func IsMonotone(q Query, schema rel.Schema, universe []rel.Value) (*Report, error) {
	return check(q, schema, universe, func(*rel.Instance, rel.Fact) bool { return true }, true)
}

// IsDomainDistinctMonotone checks membership in Mdistinct
// (Definition 5.5): Q(I) ⊆ Q(I ∪ J) whenever every fact of J contains
// a value outside adom(I). Single steps do not suffice here (a later
// fact of J may share its fresh value with an earlier one), so all
// admissible J are enumerated.
func IsDomainDistinctMonotone(q Query, schema rel.Schema, universe []rel.Value) (*Report, error) {
	return check(q, schema, universe, func(i *rel.Instance, f rel.Fact) bool {
		adomI := i.ADom()
		for v := range f.ADom() {
			if !adomI.Contains(v) {
				return true
			}
		}
		return false // includes nullary facts: adom(f) ∖ adom(I) = ∅
	}, false)
}

// IsDomainDisjointMonotone checks membership in Mdisjoint
// (Definition 5.9): Q(I) ⊆ Q(I ∪ J) whenever adom(J) ∩ adom(I) = ∅.
// Note: J being domain disjoint from I is a property of J as a whole
// relative to I only, so per-fact admissibility is exact here.
func IsDomainDisjointMonotone(q Query, schema rel.Schema, universe []rel.Value) (*Report, error) {
	return check(q, schema, universe, func(i *rel.Instance, f rel.Fact) bool {
		return !f.ADom().Intersects(i.ADom())
	}, false)
}
