package cq

import (
	"slices"

	"mpclogic/internal/rel"
)

// This file implements CQ evaluation by a left-deep hash-join plan with
// greedy atom ordering. It is the local computation engine used at each
// simulated MPC server — and, on mpcd's reuse path, the whole cost of a
// query — so it must handle instances with hundreds of thousands of
// facts. Its body, evalBindings, keeps its intermediate result as rows
// in a flat arena (type bindings). The generic join (genericjoin.go) is
// the second producer of bindings, and both hand their rows to the one
// head projection, project, which EvaluateInto and GenericJoin call;
// every other entry point calls those.

// EvaluateInto adds Q(P₁) ∪ … ∪ Q(Pₖ) to out, which must have the
// head's arity. Rows already in out stay, so one relation can collect
// the answers of several instances (the fragments of a distributed
// evaluation) or of several queries with one head (the disjuncts of a
// union), and duplicates — from projection or from across parts and
// calls — are removed once, by out itself.
//
// The parts go in as k sequential one-part calls would put them, so
// out's Each order is the same; but every part is evaluated first, each
// over its own variable order (the greedy atom order follows the part's
// relation sizes, and a part that comes up empty may stop with only some
// variables bound), and out is reserved once, for the sum of the binding
// rows, instead of growing and rehashing once a part. A part's bindings
// are dropped once its rows are in out.
func EvaluateInto(out *rel.Relation, q *CQ, parts ...*rel.Instance) {
	project(out, q, evalBindings, parts...)
}

// project is EvaluateInto over the bindings eval produces for each part:
// the one head projection, shared by the binary plan and the generic
// join.
func project(out *rel.Relation, q *CQ, eval func(*CQ, *rel.Instance) ([]string, bindings), parts ...*rel.Instance) {
	type evaluated struct {
		vars []string
		b    bindings
	}
	done := make([]evaluated, 0, 1) // one part, the common call: no allocation
	rows := 0
	for _, part := range parts {
		vars, b := eval(q, part)
		if b.n == 0 {
			continue
		}
		if len(q.Head.Args) == 0 {
			// A Boolean head holds one row whatever the binding count:
			// nothing to reserve, nothing to project, no part left to ask.
			out.Add(rel.Tuple{})
			return
		}
		done = append(done, evaluated{vars, b})
		rows += b.n
	}
	if rows == 0 {
		return
	}
	args := q.Head.Args
	cols := make([]int, len(args)) // binding column of a variable; -1 for a constant
	h := make(rel.Tuple, len(args))
	out.Reserve(rows)
	for k := range done {
		for j, arg := range args {
			cols[j], h[j] = -1, arg.Const
			if arg.IsVar() {
				cols[j] = slices.Index(done[k].vars, arg.Var)
			}
		}
		done[k].b.each(func(t rel.Tuple) bool {
			for j, c := range cols {
				if c >= 0 {
					h[j] = t[c]
				}
			}
			out.Add(h) // Add copies h into out
			return true
		})
		done[k] = evaluated{}
	}
}

// Evaluate computes Q(I) as a relation named after the head.
func Evaluate(q *CQ, i *rel.Instance) *rel.Relation {
	out := rel.NewRelation(q.Head.Rel, len(q.Head.Args))
	EvaluateInto(out, q, i)
	return out
}

// Output computes Q(I) as an instance holding the head relation.
func Output(q *CQ, i *rel.Instance) *rel.Instance {
	out := rel.NewInstance()
	out.SetRelation(Evaluate(q, i))
	return out
}

// OutputUCQ computes the union query's result as an instance: every
// disjunct projects into the relation of its head, so a union of one
// costs what Output does and a tuple two disjuncts derive is stored
// once.
func OutputUCQ(u *UCQ, i *rel.Instance) *rel.Instance {
	out := rel.NewInstance()
	for _, q := range u.Disjuncts {
		EvaluateInto(out.EnsureRelation(q.Head.Rel, len(q.Head.Args)), q, i)
	}
	return out
}

// SatisfyingValuations returns every valuation of vars(Q) that
// satisfies Q on I. Variables occurring only in the head do not exist
// by safety, so the returned valuations are total on vars(Q).
func SatisfyingValuations(q *CQ, i *rel.Instance) []Valuation {
	vars, b := evalBindings(q, i)
	if b.n == 0 {
		return nil
	}
	out := make([]Valuation, 0, b.n)
	b.each(func(t rel.Tuple) bool {
		v := make(Valuation, len(vars))
		for k, name := range vars {
			v[name] = t[k]
		}
		out = append(out, v)
		return true
	})
	return out
}

// bindings is the evaluator's intermediate result: n rows over the
// variables bound so far, row i at vals[i*width : (i+1)*width]. With no
// variable bound yet the width is 0 and only the count means anything.
//
// It is a list, not a set, because its rows are pairwise distinct by
// construction and a hash set would spend a hash, a probe and an insert
// per row to find that out. Induction over the join steps: the start
// is one empty row. A step extends a row t by the fresh variables of an
// admitted tuple s of the atom's relation that agrees with t on the
// shared variables. If (t, s|fresh) = (t', s'|fresh) then t = t', the
// same row by hypothesis, and s and s' agree at every position: a
// constant or a repeat of an earlier position is fixed by admission, a
// shared variable by t, a fresh one by the equation. The relation is a
// set, so s and s' are one tuple, which each row meets once. Filters
// (inequalities, negated atoms) only remove rows. The generic join's
// rows are distinct because each of its levels binds distinct values.
type bindings struct {
	width int
	n     int
	vals  []rel.Value
}

// row returns a view of row i, valid until the next add.
func (b *bindings) row(i int) rel.Tuple {
	return rel.Tuple(b.vals[i*b.width : (i+1)*b.width : (i+1)*b.width])
}

// add appends the row t extended by s's values at cols.
func (b *bindings) add(t, s rel.Tuple, cols []int) {
	b.vals = append(b.vals, t...)
	for _, c := range cols {
		b.vals = append(b.vals, s[c])
	}
	b.n++
}

// each calls fn for every row in order, stopping early if fn returns
// false.
func (b *bindings) each(fn func(rel.Tuple) bool) {
	for i := 0; i < b.n; i++ {
		if !fn(b.row(i)) {
			return
		}
	}
}

// filter keeps the rows satisfying keep, in place and in order.
func (b *bindings) filter(keep func(rel.Tuple) bool) {
	n := 0
	for i := 0; i < b.n; i++ {
		if t := b.row(i); keep(t) {
			copy(b.vals[n*b.width:], t)
			n++
		}
	}
	b.n, b.vals = n, b.vals[:n*b.width]
}

// evalBindings evaluates the positive body, inequalities, and negated
// atoms, returning the variable order and the bindings over it; no rows
// means the result is empty.
//
// Row order is part of the contract: an atom's matches for one row are
// appended in the enumeration order (Each) of the atom's relation, rows
// in the order of the step before — so the Each order of every
// relation projected from the result, and with it every golden output
// downstream, is a function of the instance's own enumeration orders.
func evalBindings(q *CQ, inst *rel.Instance) ([]string, bindings) {
	remaining := make([]Atom, len(q.Body))
	copy(remaining, q.Body)

	var vars []string
	bound := map[string]int{} // var → column in current
	current := bindings{n: 1} // the one empty row

	diseqApplied := make([]bool, len(q.Diseq))

	for len(remaining) > 0 {
		// Greedy: most bound variables, then smallest relation.
		best := 0
		bestScore := -1
		bestSize := int(^uint(0) >> 1)
		for k, a := range remaining {
			score := 0
			for _, t := range a.Args {
				if t.IsVar() {
					if _, ok := bound[t.Var]; ok {
						score++
					}
				} else {
					score++ // constants filter like bound vars
				}
			}
			size := 0
			if r := inst.Relation(a.Rel); r != nil {
				size = r.Len()
			}
			if score > bestScore || (score == bestScore && size < bestSize) {
				best, bestScore, bestSize = k, score, size
			}
		}
		a := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)

		m := NewMatcher(a)
		src := m.Relation(inst)
		if src == nil || src.Len() == 0 {
			return nil, bindings{}
		}

		// The atom's variables split into shared ones, which join a bound
		// column, and fresh ones, which open a new one.
		var sharedAtomCols, sharedCurCols, freshCols []int
		for k, v := range m.Vars {
			if c, ok := bound[v]; ok {
				sharedAtomCols = append(sharedAtomCols, m.Cols[k])
				sharedCurCols = append(sharedCurCols, c)
			} else {
				freshCols = append(freshCols, m.Cols[k])
			}
		}

		next := bindings{width: current.width + len(freshCols)}
		if len(sharedCurCols) == 0 {
			// Nothing to join on — the first atom, or a Cartesian
			// factor: every row meets every admitted tuple, so there is
			// nothing to index. Under a single row (the first atom's
			// case) |src| bounds the result; a real product's size is
			// not known and not guessed.
			if current.n == 1 {
				next.vals = make([]rel.Value, 0, src.Len()*next.width)
			}
			current.each(func(t rel.Tuple) bool {
				src.Each(func(s rel.Tuple) bool {
					if m.Admits(s) {
						next.add(t, s, freshCols)
					}
					return true
				})
				return true
			})
		} else {
			// rel's join index over the admitted tuples on the shared
			// variables, built for this step: it lists a key's tuples in
			// the relation's enumeration order, and nothing is copied or
			// cached on the instance.
			idx := rel.NewIndex(src, sharedAtomCols, m.Admits)
			next.vals = make([]rel.Value, 0, current.n*next.width)
			current.each(func(t rel.Tuple) bool {
				idx.Probe(t, sharedCurCols, func(s rel.Tuple) bool {
					next.add(t, s, freshCols)
					return true
				})
				return true
			})
		}
		current = next
		for _, v := range m.Vars {
			if _, ok := bound[v]; !ok {
				bound[v] = len(vars)
				vars = append(vars, v)
			}
		}
		filterDiseqs(q, bound, diseqApplied, &current)
		if current.n == 0 {
			return nil, bindings{}
		}
	}

	// Constant-only inequalities (both sides constants) and any diseq
	// not yet applied (possible when body is a single atom and diseqs
	// refer to constants only).
	filterDiseqs(q, bound, diseqApplied, &current)

	// Negated atoms: drop bindings whose instantiation is present.
	for _, a := range q.Neg {
		cols := make([]int, len(a.Args))
		ft := make(rel.Tuple, len(a.Args)) // reused: Contains keeps nothing
		for p, t := range a.Args {
			cols[p] = -1
			ft[p] = t.Const
			if t.IsVar() {
				cols[p] = bound[t.Var]
			}
		}
		current.filter(func(t rel.Tuple) bool {
			for p, c := range cols {
				if c >= 0 {
					ft[p] = t[c]
				}
			}
			return !inst.Contains(rel.Fact{Rel: a.Rel, Tuple: ft})
		})
	}
	if current.n == 0 {
		return nil, bindings{}
	}
	return vars, current
}

// filterDiseqs drops from b the rows that violate an inequality not
// yet applied whose two sides are bound (bound maps a variable to its
// column in b), and marks it applied.
func filterDiseqs(q *CQ, bound map[string]int, applied []bool, b *bindings) {
	for di, d := range q.Diseq {
		if applied[di] {
			continue
		}
		c0, ok0 := termCol(d[0], bound)
		c1, ok1 := termCol(d[1], bound)
		if !ok0 || !ok1 {
			continue
		}
		applied[di] = true
		b.filter(func(t rel.Tuple) bool {
			return termVal(d[0], t, c0) != termVal(d[1], t, c1)
		})
	}
}

func termCol(t Term, bound map[string]int) (int, bool) {
	if !t.IsVar() {
		return -1, true
	}
	c, ok := bound[t.Var]
	return c, ok
}

func termVal(t Term, tup rel.Tuple, col int) rel.Value {
	if col < 0 {
		return t.Const
	}
	return tup[col]
}
