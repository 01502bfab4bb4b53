package datalog

import (
	"mpclogic/internal/cq"
	"mpclogic/internal/mono"
)

// This file implements the syntactic classifications of Section 5.3
// and Figure 2: positive Datalog (⊆ M), Datalog with inequalities
// (still ⊆ M), semi-positive Datalog — negation on EDB relations only
// (⊆ Mdistinct), connected rules, and semi-connected stratified
// programs — every stratum except possibly the last connected
// (⊆ Mdisjoint).

// IsPositive reports whether the program has no negated atoms at all
// (inequalities are allowed: Datalog(≠) is still monotone).
func IsPositive(p *Program) bool {
	for _, r := range p.Rules {
		if r.HasNegation() {
			return false
		}
	}
	return true
}

// IsSemiPositive reports whether negation is applied only to EDB
// relations (and the built-in ADom), the fragment Afrati, Cosmadakis
// and Yannakakis placed inside Mdistinct.
func IsSemiPositive(p *Program) bool {
	idb := p.IDB()
	for _, r := range p.Rules {
		for _, a := range r.Neg {
			if idb[a.Rel] {
				return false
			}
		}
	}
	return true
}

// RuleConnected reports whether the rule's positive atoms form a
// connected graph under shared variables (Section 5.3's notion; the
// ADom guard atoms of Example 5.13 participate like any other atom).
func RuleConnected(r *Rule) bool {
	return cq.IsConnected(r)
}

// IsConnected reports whether every rule of the program is connected —
// the effective syntax for Datalog queries distributing over
// components (Ameloot et al., ICDT 2015).
func IsConnected(p *Program) bool {
	for _, r := range p.Rules {
		if !RuleConnected(r) {
			return false
		}
	}
	return true
}

// IsSemiConnected reports whether the program is stratifiable and
// every stratum except possibly the last consists of connected rules
// only — the fragment that (with value invention) captures Mdisjoint.
func IsSemiConnected(p *Program) bool {
	st, err := Stratify(p)
	if err != nil {
		return false
	}
	for s := 0; s < st.Count-1; s++ {
		for _, ri := range st.RulesByStratum[s] {
			if !RuleConnected(p.Rules[ri]) {
				return false
			}
		}
	}
	return true
}

// Classification summarizes where a program sits in the Figure 2
// hierarchy.
type Classification struct {
	Positive      bool // Datalog(≠): monotone, in M
	SemiPositive  bool // SP-Datalog: in Mdistinct
	Stratifiable  bool
	Connected     bool // distributes over components
	SemiConnected bool // semicon-Datalog: in Mdisjoint
	Strata        int
}

// Classify computes the full classification.
func Classify(p *Program) Classification {
	c := Classification{
		Positive:      IsPositive(p),
		SemiPositive:  IsSemiPositive(p),
		Connected:     IsConnected(p),
		SemiConnected: IsSemiConnected(p),
	}
	if st, err := Stratify(p); err == nil {
		c.Stratifiable = true
		c.Strata = st.Count
	}
	return c
}

// MonotonicityClass returns the strongest Figure 2 membership the
// syntax guarantees: M for positive programs, Mdistinct for
// semi-positive ones, Mdisjoint for semi-connected stratified ones,
// and None when no guarantee applies.
func (c Classification) MonotonicityClass() mono.Class {
	switch {
	case c.Positive:
		return mono.M
	case c.SemiPositive:
		return mono.Mdistinct
	case c.SemiConnected:
		return mono.Mdisjoint
	default:
		return mono.None
	}
}
