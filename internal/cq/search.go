package cq

import (
	"slices"

	"mpclogic/internal/rel"
)

// This file is the valuation search on positions. A disjunct is
// compiled once: its variables become indices (in Vars() order) and
// each argument a variable index or a constant. A candidate valuation
// is then a slice of values, V(body) a reused, sorted, deduplicated
// buffer of facts, and no candidate builds a Valuation map, an instance
// or a fact key.
//
// Union-minimality is decided by matching, not by enumerating a
// universe: a dominating W for disjunct Qj maps every body atom of Qj
// onto a fact of V(body) (that is what W(body_Qj) ⊆ V(body) says) and
// its head onto V's head fact, so the check unifies atoms with facts and
// only then tests Qj's inequalities and the strict-subset condition.
// Every variable of a safe disjunct occurs in a positive atom, so the
// matching binds them all; a variable in no positive atom and not in the
// head ranges over adom(V(body)), the universe the enumerating form used.

// slot is one argument of a compiled atom: variable index v, or the
// constant c when v < 0.
type slot struct {
	v int
	c rel.Value
}

type patom struct {
	rel  string
	args []slot
}

// disjunct is one CQ compiled for the valuation search.
type disjunct struct {
	q     *CQ
	vars  []string // q.Vars(); variable i is vars[i]
	head  patom
	body  []patom
	diseq [][2]slot
	loose []int // variables in no positive body atom and not in the head
	arity int   // Σ arity of the body atoms: the size of a V(body) buffer
}

func compile(q *CQ) *disjunct {
	d := &disjunct{q: q, vars: q.Vars()}
	term := func(t Term) slot {
		if !t.IsVar() {
			return slot{v: -1, c: t.Const}
		}
		i, _ := slices.BinarySearch(d.vars, t.Var)
		return slot{v: i}
	}
	atom := func(a Atom) patom {
		p := patom{rel: a.Rel, args: make([]slot, len(a.Args))}
		for i, t := range a.Args {
			p.args[i] = term(t)
		}
		return p
	}
	d.head = atom(q.Head)
	tied := make([]bool, len(d.vars))
	mark := func(a patom) {
		for _, s := range a.args {
			if s.v >= 0 {
				tied[s.v] = true
			}
		}
	}
	mark(d.head)
	for _, a := range q.Body {
		d.body = append(d.body, atom(a))
		mark(d.body[len(d.body)-1])
		d.arity += len(a.Args)
	}
	for _, p := range q.Diseq {
		d.diseq = append(d.diseq, [2]slot{term(p[0]), term(p[1])})
	}
	for i, ok := range tied {
		if !ok {
			d.loose = append(d.loose, i)
		}
	}
	return d
}

func (s slot) value(vals []rel.Value) rel.Value {
	if s.v < 0 {
		return s.c
	}
	return vals[s.v]
}

// holds reports whether vals satisfies every inequality of d.
func (d *disjunct) holds(vals []rel.Value) bool {
	for _, p := range d.diseq {
		if p[0].value(vals) == p[1].value(vals) {
			return false
		}
	}
	return true
}

// image writes V(body) under vals into facts, sorted and deduplicated,
// with the tuples in arena (of capacity d.arity), and returns it.
func (d *disjunct) image(vals []rel.Value, facts []rel.Fact, arena []rel.Value) []rel.Fact {
	facts, arena = facts[:0], arena[:0]
	for _, a := range d.body {
		n := len(arena)
		for _, s := range a.args {
			arena = append(arena, s.value(vals))
		}
		f := rel.Fact{Rel: a.rel, Tuple: rel.Tuple(arena[n:len(arena):len(arena)])}
		k := len(facts)
		facts = append(facts, f)
		for ; k > 0 && facts[k-1].Compare(f) > 0; k-- {
			facts[k] = facts[k-1]
		}
		facts[k] = f
	}
	return slices.CompactFunc(facts, rel.Fact.Equal)
}

// headOf writes V(head) under vals into buf and returns it.
func (d *disjunct) headOf(vals []rel.Value, buf rel.Tuple) rel.Fact {
	buf = buf[:0]
	for _, s := range d.head.args {
		buf = append(buf, s.value(vals))
	}
	return rel.Fact{Rel: d.head.rel, Tuple: buf}
}

// binding is a partial valuation by variable index with an undo trail.
type binding struct {
	vals  []rel.Value
	set   []bool
	trail []int
}

func (b *binding) reset(n int) {
	b.vals = slices.Grow(b.vals[:0], n)[:n]
	b.set = slices.Grow(b.set[:0], n)[:n]
	clear(b.set)
	b.trail = b.trail[:0]
}

// unify extends b so that a's image is the fact (rel, t), reporting a
// clash as false. Bindings made before a clash stay on the trail for
// the caller's undo.
func (b *binding) unify(a patom, f rel.Fact) bool {
	if a.rel != f.Rel || len(a.args) != len(f.Tuple) {
		return false
	}
	for i, s := range a.args {
		switch {
		case s.v < 0:
			if s.c != f.Tuple[i] {
				return false
			}
		case b.set[s.v]:
			if b.vals[s.v] != f.Tuple[i] {
				return false
			}
		default:
			b.vals[s.v], b.set[s.v] = f.Tuple[i], true
			b.trail = append(b.trail, s.v)
		}
	}
	return true
}

func (b *binding) undo(mark int) {
	for _, v := range b.trail[mark:] {
		b.set[v] = false
	}
	b.trail = b.trail[:mark]
}

// Search is the valuation search over one union, its disjuncts compiled
// once. It reuses its buffers, so it serves one goroutine; a Point it
// yields is valid until the callback returns.
type Search struct {
	ds  []*disjunct
	w   binding // a dominating valuation W under construction
	use []int   // per fact of V(body): how many of W's atoms map onto it

	v     binding // a covering valuation V under construction (Covers)
	facts []rel.Fact
	arena []rel.Value
	head  rel.Tuple
	rank  []int
}

// NewSearch compiles u for the valuation search.
func NewSearch(u *UCQ) *Search {
	s := &Search{ds: make([]*disjunct, len(u.Disjuncts))}
	for i, q := range u.Disjuncts {
		s.ds[i] = compile(q)
	}
	return s
}

// disjunct returns q's compiled form: u's own when q is a disjunct of
// it, otherwise a fresh compilation.
func (s *Search) disjunct(q *CQ) *disjunct {
	for _, d := range s.ds {
		if d.q == q {
			return d
		}
	}
	return compile(q)
}

// minimal reports whether a valuation with required facts F and head
// fact h is union-minimal: no valuation W of any disjunct derives h
// from a strict subset of F.
func (s *Search) minimal(F []rel.Fact, h rel.Fact) bool {
	s.use = slices.Grow(s.use[:0], len(F))[:len(F)]
	for _, dj := range s.ds {
		s.w.reset(len(dj.vars))
		clear(s.use)
		if s.w.unify(dj.head, h) && s.dominate(dj, F, 0, 0) {
			return false
		}
	}
	return true
}

// dominate maps dj's body atoms from k on onto facts of F, with
// distinct facts of F already hit, and reports whether some completion
// satisfies dj's inequalities while hitting fewer than |F| facts.
func (s *Search) dominate(dj *disjunct, F []rel.Fact, k, distinct int) bool {
	if k == len(dj.body) {
		return distinct < len(F) && s.fillLoose(dj, F, 0)
	}
	for i, f := range F {
		mark := len(s.w.trail)
		hit := distinct
		if s.use[i] == 0 {
			hit++
		}
		if hit < len(F) && s.w.unify(dj.body[k], f) {
			s.use[i]++
			ok := s.dominate(dj, F, k+1, hit)
			s.use[i]--
			if ok {
				return true
			}
		}
		s.w.undo(mark)
	}
	return false
}

// fillLoose ranges dj's loose variables from the i-th on over the
// values of F and tests dj's inequalities on each completion.
func (s *Search) fillLoose(dj *disjunct, F []rel.Fact, i int) bool {
	if i == len(dj.loose) {
		return dj.holds(s.w.vals)
	}
	for _, f := range F {
		for _, val := range f.Tuple {
			s.w.vals[dj.loose[i]] = val
			if s.fillLoose(dj, F, i+1) {
				return true
			}
		}
	}
	return false
}

// Universe is what a search's variables range over: Values, in the
// order given, of which those outside Fixed are fresh. A fresh value
// must occur in no query and in no fact the search is asked about.
// Permuting fresh values then preserves every verdict — the
// inequalities, union-minimality, containment of required facts — so
// the search visits one valuation per renaming class: the first in
// enumeration order, whose fresh values first occur in the order of
// Values (restricted growth).
type Universe struct {
	Values []rel.Value
	Fixed  rel.ValueSet
}

// ranks writes into buf, per value of u, -1 when it is fixed and
// otherwise its index among u's fresh values.
func (u Universe) ranks(buf []int) []int {
	buf = slices.Grow(buf[:0], len(u.Values))[:len(u.Values)]
	fresh := 0
	for i, val := range u.Values {
		if u.Fixed.Contains(val) {
			buf[i] = -1
		} else {
			buf[i] = fresh
			fresh++
		}
	}
	return buf
}

// grow reports whether the j-th value may extend a prefix that uses
// fresh fresh values, and how many the prefix then uses: a fixed value
// always may, a fresh one only in restricted-growth order — one already
// used, or the next. A nil rank fixes every value.
func grow(rank []int, j, fresh int) (int, bool) {
	if rank == nil || rank[j] < 0 {
		return fresh, true
	}
	return max(fresh, rank[j]+1), rank[j] <= fresh
}

// Point is the valuation a search is visiting, by position.
type Point struct {
	d     *disjunct
	vals  []rel.Value
	facts []rel.Fact
}

// Valuation returns the point as a new Valuation.
func (p *Point) Valuation() Valuation {
	v := make(Valuation, len(p.vals))
	for i, name := range p.d.vars {
		v[name] = p.vals[i]
	}
	return v
}

// Facts returns a copy of V(body), sorted (RequiredFacts' order).
func (p *Point) Facts() []rel.Fact {
	out := make([]rel.Fact, len(p.facts))
	for i, f := range p.facts {
		out[i] = f.Clone()
	}
	return out
}

// ADom returns the values of V(body).
func (p *Point) ADom() rel.ValueSet {
	out := make(rel.ValueSet)
	for _, f := range p.facts {
		for _, val := range f.Tuple {
			out.Add(val)
		}
	}
	return out
}

// Each streams the valuations of disjunct i over u that satisfy its
// inequalities — only the union-minimal ones when minimalOnly — in
// Vars() order over u.Values, one per renaming class of u's fresh
// values, and stops early when fn returns false. It reports whether the
// enumeration ran to the end. The cost is |u.Values|^|vars| candidates
// with no fresh values; this exponential behaviour is inherent
// (Theorem 4.8: the related decision problems are Πᵖ₂-complete).
func (s *Search) Each(i int, u Universe, minimalOnly bool, fn func(*Point) bool) bool {
	return s.each(s.ds[i], u.Values, u.ranks(nil), minimalOnly, fn)
}

// each is Each on a compiled disjunct over values ranked by
// Universe.ranks (nil: all fixed).
func (s *Search) each(d *disjunct, values []rel.Value, rank []int, minimalOnly bool, fn func(*Point) bool) bool {
	if len(values) == 0 && len(d.vars) > 0 {
		return true
	}
	p := &Point{d: d, vals: make([]rel.Value, len(d.vars)), facts: make([]rel.Fact, 0, len(d.body))}
	arena := make([]rel.Value, 0, d.arity)
	head := make(rel.Tuple, 0, len(d.head.args))
	var recur func(k, fresh int) bool
	recur = func(k, fresh int) bool {
		if k == len(d.vars) {
			if !d.holds(p.vals) {
				return true
			}
			p.facts = d.image(p.vals, p.facts, arena)
			if minimalOnly && !s.minimal(p.facts, d.headOf(p.vals, head)) {
				return true
			}
			return fn(p)
		}
		for j, val := range values {
			next, ok := grow(rank, j, fresh)
			if !ok {
				continue
			}
			p.vals[k] = val
			if !recur(k+1, next) {
				return false
			}
		}
		return true
	}
	return recur(0, 0)
}

// Covers reports whether some valuation V of disjunct i over u — one
// satisfying its inequalities, and union-minimal when minimalOnly —
// requires every fact p requires: p(body) ⊆ V(body). The order of this
// search is free, so it is containment first: it maps p's facts onto
// the disjunct's atoms, fills the variables that leaves unbound over u
// (one valuation per renaming class of u's fresh values), and tests
// minimality last. p's values must be fixed in u.
func (s *Search) Covers(i int, p *Point, u Universe, minimalOnly bool) bool {
	d := s.ds[i]
	s.v.reset(len(d.vars))
	s.facts = slices.Grow(s.facts[:0], len(d.body))
	s.arena = slices.Grow(s.arena[:0], d.arity)
	s.head = slices.Grow(s.head[:0], len(d.head.args))
	s.rank = u.ranks(s.rank)
	return s.cover(d, p.facts, u.Values, s.rank, minimalOnly)
}

// cover maps the target facts onto d's atoms, then fills the rest.
func (s *Search) cover(d *disjunct, target []rel.Fact, values []rel.Value, rank []int, minimalOnly bool) bool {
	if len(target) == 0 {
		return s.fill(d, 0, 0, values, rank, minimalOnly)
	}
	for _, a := range d.body {
		mark := len(s.v.trail)
		if s.v.unify(a, target[0]) && s.cover(d, target[1:], values, rank, minimalOnly) {
			return true
		}
		s.v.undo(mark)
	}
	return false
}

// fill ranges d's unbound variables from index k on over values and
// tests each completion. fresh counts the fresh values used so far; a
// variable the target bound holds a fixed value.
func (s *Search) fill(d *disjunct, k, fresh int, values []rel.Value, rank []int, minimalOnly bool) bool {
	for k < len(d.vars) && s.v.set[k] {
		k++
	}
	if k == len(d.vars) {
		if !d.holds(s.v.vals) {
			return false
		}
		if !minimalOnly {
			return true
		}
		s.facts = d.image(s.v.vals, s.facts, s.arena)
		return s.minimal(s.facts, d.headOf(s.v.vals, s.head))
	}
	for j, val := range values {
		next, ok := grow(rank, j, fresh)
		if !ok {
			continue
		}
		s.v.vals[k] = val
		if s.fill(d, k+1, next, values, rank, minimalOnly) {
			return true
		}
	}
	return false
}
