package cq

import (
	"mpclogic/internal/rel"
)

// This file implements CQ evaluation by a left-deep hash-join plan with
// greedy atom ordering. It is the local computation engine used at each
// simulated MPC server, so it must handle instances with hundreds of
// thousands of facts.

// Evaluate computes Q(I) as a relation named after the head.
func Evaluate(q *CQ, i *rel.Instance) *rel.Relation {
	vars, tuples := evalBindings(q, i)
	out := rel.NewRelation(q.Head.Rel, len(q.Head.Args))
	if tuples == nil {
		return out
	}
	pos := varPositions(vars)
	h := make(rel.Tuple, len(q.Head.Args)) // reused: Add copies into out
	tuples.Each(func(t rel.Tuple) bool {
		for k, arg := range q.Head.Args {
			if arg.IsVar() {
				h[k] = t[pos[arg.Var]]
			} else {
				h[k] = arg.Const
			}
		}
		out.Add(h)
		return true
	})
	return out
}

// Output computes Q(I) as an instance holding the head relation.
func Output(q *CQ, i *rel.Instance) *rel.Instance {
	out := rel.NewInstance()
	out.SetRelation(Evaluate(q, i))
	return out
}

// OutputUCQ computes the union query's result as an instance. The
// first disjunct's fresh result is adopted, not copied, so a union of
// one costs what Output does — which nevertheless stays its own two
// lines above rather than this function's one-disjunct call: with
// Evaluate it is the local engine of every server.
func OutputUCQ(u *UCQ, i *rel.Instance) *rel.Instance {
	out := rel.NewInstance()
	for k, q := range u.Disjuncts {
		r := Evaluate(q, i)
		if k == 0 {
			out.SetRelation(r)
			continue
		}
		out.EnsureRelation(r.Name, r.Arity).UnionWith(r)
	}
	return out
}

// SatisfyingValuations returns every valuation of vars(Q) that
// satisfies Q on I. Variables occurring only in the head do not exist
// by safety, so the returned valuations are total on vars(Q).
func SatisfyingValuations(q *CQ, i *rel.Instance) []Valuation {
	vars, tuples := evalBindings(q, i)
	if tuples == nil {
		return nil
	}
	out := make([]Valuation, 0, tuples.Len())
	tuples.Each(func(t rel.Tuple) bool {
		v := make(Valuation, len(vars))
		for k, name := range vars {
			v[name] = t[k]
		}
		out = append(out, v)
		return true
	})
	return out
}

// evalBindings evaluates the positive body, inequalities, and negated
// atoms, returning the variable order and a relation of bindings over
// it. A nil relation means the result is empty.
func evalBindings(q *CQ, inst *rel.Instance) ([]string, *rel.Relation) {
	remaining := make([]Atom, len(q.Body))
	copy(remaining, q.Body)

	var vars []string
	bound := map[string]int{} // var → column in current
	current := rel.NewRelation("⋈", 0)
	current.Add(rel.Tuple{})

	diseqApplied := make([]bool, len(q.Diseq))

	applyDiseqs := func() {
		for di, d := range q.Diseq {
			if diseqApplied[di] {
				continue
			}
			c0, ok0 := termCol(d[0], bound)
			c1, ok1 := termCol(d[1], bound)
			if !ok0 || !ok1 {
				continue
			}
			diseqApplied[di] = true
			current = rel.Select(current, func(t rel.Tuple) bool {
				return termVal(d[0], t, c0) != termVal(d[1], t, c1)
			})
		}
	}

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

		src := inst.Relation(a.Rel)
		if src == nil || src.Len() == 0 {
			return nil, nil
		}

		// Distinct variables of the atom in first-occurrence order, and
		// per-tuple admission check (constants, repeated variables).
		atomVars := a.Vars()
		varFirstPos := map[string]int{}
		for p, t := range a.Args {
			if t.IsVar() {
				if _, ok := varFirstPos[t.Var]; !ok {
					varFirstPos[t.Var] = p
				}
			}
		}
		admits := func(t rel.Tuple) bool {
			for p, arg := range a.Args {
				if arg.IsVar() {
					if t[varFirstPos[arg.Var]] != t[p] {
						return false
					}
				} else if t[p] != arg.Const {
					return false
				}
			}
			return true
		}

		var shared, fresh []string
		for _, v := range atomVars {
			if _, ok := bound[v]; ok {
				shared = append(shared, v)
			} else {
				fresh = append(fresh, v)
			}
		}
		sharedAtomCols := make([]int, len(shared))
		sharedCurCols := make([]int, len(shared))
		for k, v := range shared {
			sharedAtomCols[k] = varFirstPos[v]
			sharedCurCols[k] = bound[v]
		}
		freshCols := make([]int, len(fresh))
		for k, v := range fresh {
			freshCols[k] = varFirstPos[v]
		}

		// Index the atom's admitted tuples by shared-variable hash.
		// Buckets hold the source tuples themselves: candidates are
		// verified column-by-column at probe time, so no projected
		// tuple or string key is allocated per entry.
		idx := make(map[uint64][]rel.Tuple, src.Len())
		src.Each(func(t rel.Tuple) bool {
			if !admits(t) {
				return true
			}
			h := rel.HashCols(t, sharedAtomCols)
			idx[h] = append(idx[h], t)
			return true
		})

		next := rel.NewRelationSize("⋈", current.Arity+len(fresh), current.Len())
		scratch := make(rel.Tuple, current.Arity+len(fresh)) // reused: Add copies
		curArity := current.Arity
		current.Each(func(t rel.Tuple) bool {
			h := rel.HashCols(t, sharedCurCols)
			for _, s := range idx[h] {
				if !rel.EqualOn(t, sharedCurCols, s, sharedAtomCols) {
					continue
				}
				copy(scratch, t)
				for k, c := range freshCols {
					scratch[curArity+k] = s[c]
				}
				next.Add(scratch)
			}
			return true
		})
		current = next
		for _, v := range fresh {
			bound[v] = len(vars)
			vars = append(vars, v)
		}
		applyDiseqs()
		if current.Len() == 0 {
			return nil, nil
		}
	}

	// Constant-only inequalities (both sides constants) and any diseq
	// not yet applied (possible when body is a single atom and diseqs
	// refer to constants only).
	applyDiseqs()

	// Negated atoms: drop bindings whose instantiation is present.
	for _, a := range q.Neg {
		cols := make([]int, len(a.Args))
		for p, t := range a.Args {
			if t.IsVar() {
				cols[p] = bound[t.Var]
			} else {
				cols[p] = -1
			}
		}
		current = rel.Select(current, func(t rel.Tuple) bool {
			ft := make(rel.Tuple, len(a.Args))
			for p := range a.Args {
				if cols[p] >= 0 {
					ft[p] = t[cols[p]]
				} else {
					ft[p] = a.Args[p].Const
				}
			}
			return !inst.Contains(rel.Fact{Rel: a.Rel, Tuple: ft})
		})
	}
	if current.Len() == 0 {
		return nil, nil
	}
	return vars, current
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

func varPositions(vars []string) map[string]int {
	out := make(map[string]int, len(vars))
	for i, v := range vars {
		out[v] = i
	}
	return out
}
