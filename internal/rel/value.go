// Package rel provides the relational substrate underlying the whole
// library: domain values, tuples, facts, relations, database instances,
// and a small positional relational algebra.
//
// The design follows Section 2 of Neven (PODS 2016): an infinite domain
// dom, a database schema of relation names with arities, and instances
// as finite sets of facts. Domain values are interned integers
// (see Dict) so that tuple hashing and MPC load accounting stay cheap
// even for instances with millions of facts.
package rel

import (
	"sort"
	"strconv"
)

// Value is an element of the (conceptually infinite) domain dom.
// Values are plain int64s; symbolic names used in examples and tests are
// managed by a Dict. Values obtained from a Dict are always >= 0;
// negative values are free for callers that synthesize data directly.
type Value int64

// ValueSet is a finite set of domain values, used for active domains.
type ValueSet map[Value]struct{}

// NewValueSet returns a set containing the given values.
func NewValueSet(vs ...Value) ValueSet {
	s := make(ValueSet, len(vs))
	for _, v := range vs {
		s[v] = struct{}{}
	}
	return s
}

// Add inserts v into the set.
func (s ValueSet) Add(v Value) { s[v] = struct{}{} }

// Contains reports whether v is in the set.
func (s ValueSet) Contains(v Value) bool {
	_, ok := s[v]
	return ok
}

// AddAll inserts every value of t into s.
func (s ValueSet) AddAll(t ValueSet) {
	for v := range t {
		s[v] = struct{}{}
	}
}

// Union returns a new set containing the values of both s and t.
func (s ValueSet) Union(t ValueSet) ValueSet {
	u := make(ValueSet, len(s)+len(t))
	u.AddAll(s)
	u.AddAll(t)
	return u
}

// Intersects reports whether s and t share at least one value.
func (s ValueSet) Intersects(t ValueSet) bool {
	if len(t) < len(s) {
		s, t = t, s
	}
	for v := range s {
		if t.Contains(v) {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every value of s is in t.
func (s ValueSet) SubsetOf(t ValueSet) bool {
	for v := range s {
		if !t.Contains(v) {
			return false
		}
	}
	return true
}

// Sorted returns the values in increasing order.
func (s ValueSet) Sorted() []Value {
	out := make([]Value, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Dict interns symbolic domain-value names. It makes examples and tests
// readable ("a", "b", "c") while the engines work on integer Values.
// A Dict is not safe for concurrent mutation.
type Dict struct {
	byName map[string]Value
	names  []string
}

// NewDict returns an empty interner.
func NewDict() *Dict {
	return &Dict{byName: make(map[string]Value)}
}

// Value interns name and returns its Value, allocating a fresh one on
// first use.
func (d *Dict) Value(name string) Value {
	if v, ok := d.byName[name]; ok {
		return v
	}
	v := Value(len(d.names))
	d.byName[name] = v
	d.names = append(d.names, name)
	return v
}

// Values interns each name in order.
func (d *Dict) Values(names ...string) []Value {
	out := make([]Value, len(names))
	for i, n := range names {
		out[i] = d.Value(n)
	}
	return out
}

// Lookup returns the Value for name without interning it.
func (d *Dict) Lookup(name string) (Value, bool) {
	v, ok := d.byName[name]
	return v, ok
}

// AppendName appends the symbolic name of v to dst, or the numeric
// rendering #v if v was never interned through this Dict, and returns
// the extended buffer.
func (d *Dict) AppendName(dst []byte, v Value) []byte {
	if v >= 0 && int(v) < len(d.names) {
		return append(dst, d.names[v]...)
	}
	return strconv.AppendInt(append(dst, '#'), int64(v), 10)
}

// Name returns the symbolic name of v, or a numeric rendering if v was
// never interned through this Dict.
func (d *Dict) Name(v Value) string { return string(d.AppendName(make([]byte, 0, 24), v)) }

// Len reports how many names have been interned.
func (d *Dict) Len() int { return len(d.names) }
