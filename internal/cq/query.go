package cq

import (
	"fmt"
	"sort"
	"strings"

	"mpclogic/internal/rel"
)

// CQ is a conjunctive query, possibly extended with inequalities
// (CQ≠) and negated atoms (CQ¬):
//
//	Head(x̄) ← R1(ȳ1), …, Rm(ȳm), ¬S1(z̄1), …, x ≠ y, …
//
// Safety (checked by Validate): every head variable and every variable
// in a negated atom or inequality occurs in some positive body atom.
type CQ struct {
	Head  Atom
	Body  []Atom    // positive atoms
	Neg   []Atom    // negated atoms
	Diseq [][2]Term // inequalities x ≠ y
}

// Vars returns vars(Q): all variables of the query (head, body,
// negated atoms, inequalities), in deterministic (sorted) order.
func (q *CQ) Vars() []string {
	seen := map[string]bool{}
	add := func(ts []Term) {
		for _, t := range ts {
			if t.IsVar() {
				seen[t.Var] = true
			}
		}
	}
	add(q.Head.Args)
	for _, a := range q.Body {
		add(a.Args)
	}
	for _, a := range q.Neg {
		add(a.Args)
	}
	for _, d := range q.Diseq {
		add(d[:])
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// BodyVars returns the variables occurring in positive body atoms.
func (q *CQ) BodyVars() map[string]bool {
	seen := map[string]bool{}
	for _, a := range q.Body {
		for _, t := range a.Args {
			if t.IsVar() {
				seen[t.Var] = true
			}
		}
	}
	return seen
}

// Constants returns the constants appearing anywhere in the query.
func (q *CQ) Constants() rel.ValueSet {
	out := make(rel.ValueSet)
	add := func(ts []Term) {
		for _, t := range ts {
			if !t.IsVar() {
				out.Add(t.Const)
			}
		}
	}
	add(q.Head.Args)
	for _, a := range q.Body {
		add(a.Args)
	}
	for _, a := range q.Neg {
		add(a.Args)
	}
	for _, d := range q.Diseq {
		add(d[:])
	}
	return out
}

// Validate checks well-formedness: ValidateBody, then safety of the
// head (every head variable occurs in some positive body atom).
func (q *CQ) Validate() error {
	if err := q.ValidateBody(); err != nil {
		return err
	}
	bv := q.BodyVars()
	for _, t := range q.Head.Args {
		if t.IsVar() && !bv[t.Var] {
			return fmt.Errorf("cq: head variable %s not in body", t.Var)
		}
	}
	return nil
}

// ValidateBody is Validate without the head: nonempty body, and every
// variable of a negated atom or inequality occurs in some positive
// body atom. It is the whole check for rules whose unsafe head
// variables are meaningful (value invention).
func (q *CQ) ValidateBody() error {
	if len(q.Body) == 0 {
		return fmt.Errorf("cq: query %s has empty body", q.Head.Rel)
	}
	bv := q.BodyVars()
	for _, a := range q.Neg {
		for _, t := range a.Args {
			if t.IsVar() && !bv[t.Var] {
				return fmt.Errorf("cq: variable %s of negated atom %s not in positive body", t.Var, a)
			}
		}
	}
	for _, d := range q.Diseq {
		for _, t := range d {
			if t.IsVar() && !bv[t.Var] {
				return fmt.Errorf("cq: inequality variable %s not in positive body", t.Var)
			}
		}
	}
	return nil
}

// HasNegation reports whether the query has negated atoms (CQ¬).
func (q *CQ) HasNegation() bool { return len(q.Neg) > 0 }

// HasDiseq reports whether the query has inequalities (CQ≠).
func (q *CQ) HasDiseq() bool { return len(q.Diseq) > 0 }

// IsFull reports whether Q is a full query: every variable of the body
// occurs in the head.
func (q *CQ) IsFull() bool {
	hv := map[string]bool{}
	for _, t := range q.Head.Args {
		if t.IsVar() {
			hv[t.Var] = true
		}
	}
	for v := range q.BodyVars() {
		if !hv[v] {
			return false
		}
	}
	return true
}

// IsBoolean reports whether the head has no arguments.
func (q *CQ) IsBoolean() bool { return len(q.Head.Args) == 0 }

// SelfJoinFree reports whether no relation name repeats in the positive
// body.
func (q *CQ) SelfJoinFree() bool {
	seen := map[string]bool{}
	for _, a := range q.Body {
		if seen[a.Rel] {
			return false
		}
		seen[a.Rel] = true
	}
	return true
}

// Schema returns the input schema of the query (relations of body and
// negated atoms with their arities); it errs on inconsistent arities.
func (q *CQ) Schema() (rel.Schema, error) {
	s := rel.Schema{}
	if err := q.declareInto(s); err != nil {
		return nil, err
	}
	return s, nil
}

// declareInto declares the body's then the negated atoms' relations in
// s, in atom order, so the first arity conflict is the one reported.
func (q *CQ) declareInto(s rel.Schema) error {
	for _, atoms := range [2][]Atom{q.Body, q.Neg} {
		for _, a := range atoms {
			if err := s.Declare(a.Rel, len(a.Args)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the query.
func (q *CQ) Clone() *CQ {
	out := &CQ{Head: cloneAtom(q.Head)}
	for _, a := range q.Body {
		out.Body = append(out.Body, cloneAtom(a))
	}
	for _, a := range q.Neg {
		out.Neg = append(out.Neg, cloneAtom(a))
	}
	out.Diseq = append(out.Diseq, q.Diseq...)
	return out
}

func cloneAtom(a Atom) Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Rel: a.Rel, Args: args}
}

// String renders the query in rule syntax.
func (q *CQ) String() string {
	var b strings.Builder
	b.WriteString(q.Head.String())
	b.WriteString(" :- ")
	first := true
	for _, a := range q.Body {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(a.String())
	}
	for _, a := range q.Neg {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString("not ")
		b.WriteString(a.String())
	}
	for _, d := range q.Diseq {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(d[0].String())
		b.WriteString(" != ")
		b.WriteString(d[1].String())
	}
	return b.String()
}

// UCQ is a union of conjunctive queries with a common head relation.
type UCQ struct {
	Disjuncts []*CQ
}

// single is q as a union of one: a CQ entry point of a union procedure
// is that procedure's one-disjunct call.
func single(q *CQ) *UCQ { return &UCQ{Disjuncts: []*CQ{q}} }

// Validate checks each disjunct and that head relations/arities agree.
func (u *UCQ) Validate() error {
	if len(u.Disjuncts) == 0 {
		return fmt.Errorf("cq: empty union")
	}
	h := u.Disjuncts[0].Head
	for _, q := range u.Disjuncts {
		if err := q.Validate(); err != nil {
			return err
		}
		if q.Head.Rel != h.Rel || len(q.Head.Args) != len(h.Args) {
			return fmt.Errorf("cq: union disjuncts disagree on head")
		}
	}
	return nil
}

// HasNegation reports whether any disjunct has negated atoms.
func (u *UCQ) HasNegation() bool {
	for _, q := range u.Disjuncts {
		if q.HasNegation() {
			return true
		}
	}
	return false
}

// String renders the union, one disjunct per line.
func (u *UCQ) String() string {
	parts := make([]string, len(u.Disjuncts))
	for i, q := range u.Disjuncts {
		parts[i] = q.String()
	}
	return strings.Join(parts, "\n")
}
