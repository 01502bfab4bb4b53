// Package scale implements a simplified form of scale independence
// (Fan, Geerts, Libkin — PODS 2014, cited in Section 6 of Neven's
// survey): some queries need only a small subset of the data, whose
// size is determined by the query's structure and the available access
// methods rather than by the size of the database.
//
// An access constraint Rel: (cols → fanout) promises that for any
// binding of the listed columns at most `fanout` tuples match (think:
// a user follows at most 5000 accounts). A conjunctive query is
// boundedly evaluable under a set of constraints when its atoms can be
// ordered so that each is fetched through a constraint whose input
// columns are already bound — by constants or by earlier atoms. The
// number of facts touched is then at most the product of the fan-outs,
// independent of |D|. Execute runs such a plan over rows of the bound
// variables, reading each atom through its cq.Matcher.
package scale

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"mpclogic/internal/cq"
	"mpclogic/internal/rel"
)

// Access is one access constraint: given values for columns On of
// relation Rel, at most Fanout tuples match. On may be empty, meaning
// the whole relation has at most Fanout tuples (a "small" relation).
type Access struct {
	Rel    string
	On     []int
	Fanout int
}

func (a Access) String() string {
	cols := make([]string, len(a.On))
	for i, c := range a.On {
		cols[i] = fmt.Sprint(c)
	}
	return fmt.Sprintf("%s(%s)→%d", a.Rel, strings.Join(cols, ","), a.Fanout)
}

// Constraints is the access schema: the constraints available per
// relation.
type Constraints []Access

// Step is one fetch in a bounded query plan: retrieve the tuples of
// Atom matching the bound columns via the chosen constraint.
type Step struct {
	AtomIndex int
	Via       Access
}

// Plan is a bounded evaluation plan with its worst-case fetch bound.
type Plan struct {
	Query *cq.CQ
	Steps []Step
	// Bound is the worst-case number of fetched facts: the sum over
	// steps of the product of fan-outs up to that step.
	Bound int
}

// Analyze decides bounded evaluability of a pure CQ under the access
// schema, greedily building a plan: at each point it picks an
// unfetched atom that has a usable constraint (all input columns bound
// by constants or earlier atoms), preferring the smallest fan-out.
// Greedy selection is complete here: fetching an atom only ever binds
// more variables, so usable atoms stay usable.
func Analyze(q *cq.CQ, cons Constraints) (*Plan, error) {
	if q.HasNegation() {
		return nil, fmt.Errorf("scale: bounded evaluability for positive queries")
	}
	byRel := map[string][]Access{}
	for _, a := range cons {
		byRel[a.Rel] = append(byRel[a.Rel], a)
	}
	for _, as := range byRel {
		sort.Slice(as, func(i, j int) bool { return as[i].Fanout < as[j].Fanout })
	}

	bound := map[string]bool{}
	fetched := make([]bool, len(q.Body))
	plan := &Plan{Query: q}
	width := 1 // bindings alive before the next step

	usable := func(ai int) (Access, bool) {
		a := q.Body[ai]
	next:
		for _, acc := range byRel[a.Rel] {
			for _, col := range acc.On {
				if col >= len(a.Args) || a.Args[col].IsVar() && !bound[a.Args[col].Var] {
					continue next
				}
			}
			return acc, true
		}
		return Access{}, false
	}

	for steps := 0; steps < len(q.Body); steps++ {
		best, bestAcc := -1, Access{}
		for ai := range q.Body {
			if fetched[ai] {
				continue
			}
			if acc, ok := usable(ai); ok && (best < 0 || acc.Fanout < bestAcc.Fanout) {
				best, bestAcc = ai, acc
			}
		}
		if best < 0 {
			var stuck []string
			for ai, a := range q.Body {
				if !fetched[ai] {
					stuck = append(stuck, a.String())
				}
			}
			return nil, fmt.Errorf("scale: not boundedly evaluable; no access constraint covers %s", strings.Join(stuck, ", "))
		}
		fetched[best] = true
		plan.Steps = append(plan.Steps, Step{AtomIndex: best, Via: bestAcc})
		width *= bestAcc.Fanout
		plan.Bound += width
		for _, v := range q.Body[best].Vars() {
			bound[v] = true
		}
	}
	return plan, nil
}

// Execute runs a bounded plan on an instance, touching only the facts
// the plan fetches, and reports the result together with the number of
// facts actually fetched (which must stay within Plan.Bound as long as
// the instance honours the declared constraints).
//
// Partial answers are rows over the variables bound so far. A step
// fetches, per row, the tuples agreeing with the row and the atom's
// constants on the constraint's input columns — the fetched facts —
// and extends the row by each one the atom's cq.Matcher admits that
// agrees with it on the shared variables.
func Execute(p *Plan, inst *rel.Instance) (*rel.Relation, int, error) {
	q := p.Query
	var vars []string      // the bound variables, in binding order
	cur := []rel.Tuple{{}} // the rows over vars: first the empty row
	fetched := 0
	for _, step := range p.Steps {
		atom := q.Body[step.AtomIndex]
		m := cq.NewMatcher(atom)
		src := m.Relation(inst) // nil: the atom matches nothing here
		var shared [][2]int     // (atom column, row column) of a bound variable
		var fresh []int         // atom column of a variable the step binds
		for k, v := range m.Vars {
			if c := slices.Index(vars, v); c >= 0 {
				shared = append(shared, [2]int{m.Cols[k], c})
			} else {
				fresh = append(fresh, m.Cols[k])
			}
		}
		want := make([]key, len(step.Via.On))
		var next []rel.Tuple
		for _, row := range cur {
			for i, col := range step.Via.On {
				want[i] = key{col, value(atom.Args[col], vars, row)}
			}
			matches := fetchMatching(src, want)
			fetched += len(matches)
		match:
			for _, t := range matches {
				for _, sc := range shared {
					if t[sc[0]] != row[sc[1]] {
						continue match
					}
				}
				if m.Admits(t) {
					ext := slices.Grow(slices.Clip(row), len(fresh))
					for _, c := range fresh {
						ext = append(ext, t[c])
					}
					next = append(next, ext)
				}
			}
		}
		for _, c := range fresh {
			vars = append(vars, atom.Args[c].Var)
		}
		if cur = next; len(cur) == 0 {
			break
		}
	}
	out := rel.NewRelation(q.Head.Rel, len(q.Head.Args))
	h := make(rel.Tuple, len(q.Head.Args))
rows:
	for _, row := range cur {
		for _, d := range q.Diseq {
			if value(d[0], vars, row) == value(d[1], vars, row) {
				continue rows
			}
		}
		for i, t := range q.Head.Args {
			h[i] = value(t, vars, row)
		}
		out.Add(h)
	}
	return out, fetched, nil
}

// value is a term's value in a row over vars.
func value(t cq.Term, vars []string, row rel.Tuple) rel.Value {
	if t.IsVar() {
		return row[slices.Index(vars, t.Var)]
	}
	return t.Const
}

// key asks a fetched tuple for the value val at column col.
type key struct {
	col int
	val rel.Value
}

// fetchMatching returns the tuples of src that hold every key (an index
// lookup in a real system; a filtered scan counted as |result| fetches
// here). A nil src holds nothing.
func fetchMatching(src *rel.Relation, want []key) (out []rel.Tuple) {
	if src != nil {
		src.Each(func(t rel.Tuple) bool {
			for _, k := range want {
				if t[k.col] != k.val {
					return true
				}
			}
			out = append(out, t)
			return true
		})
	}
	return out
}
