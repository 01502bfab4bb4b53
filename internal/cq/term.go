// Package cq implements conjunctive queries (CQs) as defined in
// Section 2 of Neven (PODS 2016), together with the machinery the
// paper's framework needs: evaluation, valuations, minimal valuations
// (Definition 4.4), homomorphism-based containment, negation and
// inequalities, structural analysis (acyclicity, connectedness), and
// fractional edge packings (Section 3.1).
package cq

import (
	"slices"
	"strconv"
	"strings"

	"mpclogic/internal/rel"
)

// Term is either a variable (Var != "") or a constant.
type Term struct {
	Var   string
	Const rel.Value
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(v rel.Value) Term { return Term{Const: v} }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term; constants are shown as bare integers, which
// reparse to the same Value.
func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	return strconv.FormatInt(int64(t.Const), 10)
}

// Atom is a relation name applied to a list of terms.
type Atom struct {
	Rel  string
	Args []Term
}

// NewAtom builds an atom.
func NewAtom(relName string, args ...Term) Atom {
	return Atom{Rel: relName, Args: args}
}

// Vars returns the distinct variables of the atom, in first-occurrence
// order.
func (a Atom) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range a.Args {
		if t.IsVar() && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// JoinColumns is the column analysis of the binary join l ⋈ r: for each
// variable the two atoms share, in the order r first mentions it, the
// tuple position of its first occurrence in l and in r. Hashing an
// l-tuple on lCols and an r-tuple on rCols sends joining tuples to the
// same place; both lists are empty for a cross product.
func JoinColumns(l, r Atom) (lCols, rCols []int) {
	lm, rm := NewMatcher(l), NewMatcher(r)
	for k, v := range rm.Vars {
		if j := slices.Index(lm.Vars, v); j >= 0 {
			lCols = append(lCols, lm.Cols[j])
			rCols = append(rCols, rm.Cols[k])
		}
	}
	return lCols, rCols
}

// String renders the atom in the usual syntax.
func (a Atom) String() string {
	var b strings.Builder
	b.WriteString(a.Rel)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}
