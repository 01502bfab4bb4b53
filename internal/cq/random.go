package cq

import (
	"math/rand"

	"mpclogic/internal/rel"
)

// RandomShape is what the callers of Random — test support: the one
// random-query generator under the property suites of cq, pc, hypercube,
// core and mpcd, here because cq's in-package oracle tests cannot import
// a package that imports cq — differ in. Atoms are drawn over Rels (with
// Arity, in parallel), 1 … MaxAtoms of them; variables from Vars, or
// with Prefix from a random prefix of it (two at least) drawn first. An
// argument is a constant of Consts one time in ConstOneIn, or with 0
// drawn uniformly from Vars and Consts together. Head draws a Boolean,
// one-variable or full head and, one time in three, an inequality;
// unset, the head is Boolean.
type RandomShape struct {
	Rels       []string
	Arity      []int
	MaxAtoms   int
	Vars       []string
	Prefix     bool
	Consts     []rel.Value
	ConstOneIn int
	Head       bool
}

// SmallJoins is the shape the oracle suites share: small safe CQ≠ over
// {R/2, S/2, T/1} with repeated variables, self-joins and a constant.
var SmallJoins = RandomShape{
	Rels: []string{"R", "S", "T"}, Arity: []int{2, 2, 1},
	Vars: []string{"x", "y", "z"}, Consts: []rel.Value{7},
	MaxAtoms: 3, Head: true,
}

// Random draws a CQ of shape s named H, arguments with replacement.
func Random(r *rand.Rand, s RandomShape) *CQ {
	vars := s.Vars
	if s.Prefix {
		vars = vars[:2+r.Intn(len(vars)-1)]
	}
	arg := func() Term {
		n := len(vars)
		if s.ConstOneIn == 0 {
			n += len(s.Consts) // one draw over variables and constants
		} else if r.Intn(s.ConstOneIn) == 0 {
			return C(s.Consts[r.Intn(len(s.Consts))])
		}
		k := r.Intn(n)
		if k < len(vars) {
			return V(vars[k])
		}
		return C(s.Consts[k-len(vars)])
	}
	q := &CQ{Head: NewAtom("H")}
	for n := 1 + r.Intn(s.MaxAtoms); n > 0; n-- {
		k := r.Intn(len(s.Rels))
		args := make([]Term, s.Arity[k])
		for i := range args {
			args[i] = arg()
		}
		q.Body = append(q.Body, NewAtom(s.Rels[k], args...))
	}
	var bound []Term
	for _, v := range vars {
		if q.BodyVars()[v] {
			bound = append(bound, V(v))
		}
	}
	if !s.Head || len(bound) == 0 {
		return q
	}
	switch r.Intn(3) {
	case 1:
		q.Head.Args = []Term{bound[r.Intn(len(bound))]}
	case 2:
		q.Head.Args = bound
	}
	if r.Intn(3) == 0 {
		a := bound[r.Intn(len(bound))]
		if b := arg(); a != b && (!b.IsVar() || q.BodyVars()[b.Var]) {
			q.Diseq = append(q.Diseq, [2]Term{a, b})
		}
	}
	return q
}
