package cq

import (
	"slices"

	"mpclogic/internal/rel"
)

// Matcher is an atom compiled for matching the stored tuples of its
// relation, the one place a tuple is matched to an atom. A tuple
// matches when the instance holds the relation at the atom's arity
// and the tuple passes the per-tuple checks (constants, repeated
// variables); it binds Vars[k] to its value at Cols[k].
type Matcher struct {
	Vars []string // the atom's distinct variables, in first-occurrence order
	Cols []int    // Cols[k]: the first position of Vars[k]

	atom   Atom
	checks []check // none for an atom of distinct variables
}

// check requires t[pos] to equal t[first], or, with first < 0, c.
type check struct {
	pos, first int
	c          rel.Value
}

// NewMatcher compiles a: the first occurrence of a variable opens a
// column, a repeat or a constant is a check.
func NewMatcher(a Atom) Matcher {
	n := len(a.Args)
	m := Matcher{Vars: make([]string, 0, n), Cols: make([]int, 0, n), atom: a}
	for p, t := range a.Args {
		if !t.IsVar() {
			m.checks = append(m.checks, check{pos: p, first: -1, c: t.Const})
		} else if k := slices.Index(m.Vars, t.Var); k >= 0 {
			m.checks = append(m.checks, check{pos: p, first: m.Cols[k]})
		} else {
			m.Vars = append(m.Vars, t.Var)
			m.Cols = append(m.Cols, p)
		}
	}
	return m
}

// Relation returns the relation the atom reads in inst, or nil when the
// atom matches nothing there: the instance lacks it, or holds it at
// another arity.
func (m *Matcher) Relation(inst *rel.Instance) *rel.Relation {
	if r := inst.Relation(m.atom.Rel); r != nil && r.Arity == len(m.atom.Args) {
		return r
	}
	return nil
}

// Admits reports whether a tuple of the atom's relation passes the
// atom's per-tuple checks.
func (m *Matcher) Admits(t rel.Tuple) bool {
	for _, k := range m.checks {
		if k.first < 0 {
			if t[k.pos] != k.c {
				return false
			}
		} else if t[k.pos] != t[k.first] {
			return false
		}
	}
	return true
}
