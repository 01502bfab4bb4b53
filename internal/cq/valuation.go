package cq

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"mpclogic/internal/rel"
)

// Valuation is a total function from variables to domain values
// (Section 2). Only the variables of the query at hand are bound.
type Valuation map[string]rel.Value

// Clone returns a copy of the valuation.
func (v Valuation) Clone() Valuation {
	out := make(Valuation, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// ApplyTerm maps a term under the valuation; it panics on an unbound
// variable, which is a programming error given query safety.
func (v Valuation) ApplyTerm(t Term) rel.Value {
	if !t.IsVar() {
		return t.Const
	}
	val, ok := v[t.Var]
	if !ok {
		panic(fmt.Sprintf("cq: unbound variable %s", t.Var))
	}
	return val
}

// Apply instantiates an atom into a fact.
func (v Valuation) Apply(a Atom) rel.Fact {
	t := make(rel.Tuple, len(a.Args))
	for i, arg := range a.Args {
		t[i] = v.ApplyTerm(arg)
	}
	return rel.Fact{Rel: a.Rel, Tuple: t}
}

// RequiredFacts returns V(body_Q), the facts required by V (Section 2).
func (v Valuation) RequiredFacts(q *CQ) []rel.Fact {
	out := make([]rel.Fact, len(q.Body))
	for i, a := range q.Body {
		out[i] = v.Apply(a)
	}
	rel.SortFacts(out)
	return slices.CompactFunc(out, rel.Fact.Equal)
}

// RequiredInstance returns V(body_Q) as an instance.
func (v Valuation) RequiredInstance(q *CQ) *rel.Instance {
	return rel.FromFacts(v.RequiredFacts(q)...)
}

// Derives returns V(head_Q), the fact derived by V.
func (v Valuation) Derives(q *CQ) rel.Fact { return v.Apply(q.Head) }

// SatisfiesDiseq reports whether V satisfies every inequality of Q.
func (v Valuation) SatisfiesDiseq(q *CQ) bool {
	for _, d := range q.Diseq {
		if v.ApplyTerm(d[0]) == v.ApplyTerm(d[1]) {
			return false
		}
	}
	return true
}

// Equal reports whether v and w bind the same variables to the same
// values.
func (v Valuation) Equal(w Valuation) bool {
	if len(v) != len(w) {
		return false
	}
	for k, val := range v {
		if wv, ok := w[k]; !ok || wv != val {
			return false
		}
	}
	return true
}

// String renders the valuation deterministically.
func (v Valuation) String() string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s↦%d", k, int64(v[k]))
	}
	b.WriteByte('}')
	return b.String()
}

// AllValuations enumerates every total function from vars to universe
// and calls fn with each; enumeration stops early if fn returns false.
// The valuation passed to fn is reused across calls; clone it to keep.
func AllValuations(vars []string, universe []rel.Value, fn func(Valuation) bool) {
	if len(universe) == 0 && len(vars) > 0 {
		return
	}
	v := make(Valuation, len(vars))
	var recur func(i int) bool
	recur = func(i int) bool {
		if i == len(vars) {
			return fn(v)
		}
		for _, val := range universe {
			v[vars[i]] = val
			if !recur(i + 1) {
				return false
			}
		}
		return true
	}
	recur(0)
}
