package cq

import (
	"cmp"
	"fmt"
	"slices"

	"mpclogic/internal/rel"
)

// This file implements a worst-case-optimal "generic join": variable-
// at-a-time evaluation where each variable's values are the
// intersection, over the atoms that hold it, of the values consistent
// with the bindings so far. Its running time is bounded by the AGM
// bound m^{ρ*} (ρ* = the fractional edge cover number this library
// computes by LP), unlike pairwise join plans which can exceed it by
// materializing large intermediates.
//
// Each atom's trie is its admitted tuples (read through its Matcher),
// permuted into the join's variable order, collected in a rel.Relation
// and enumerated in rel's sorted order: the tuples extending a bound
// prefix form one run, sorted on the next variable. A variable is
// bound by letting the smallest run among its atoms drive, value by
// value, while the others' cursors gallop forward to each value. Every
// level binds distinct values, so the result rows are pairwise
// distinct, and they are the evaluator's own bindings, projected by its
// own head projection.
//
// The paper cites Chu, Balazinska and Suciu's empirical study pairing
// exactly this kind of sequential algorithm with the HyperCube
// shuffle (Section 3.1): HyperCube + worst-case-optimal local joins
// perform well on queries with large intermediate results.

// GenericJoin evaluates a positive CQ (inequalities allowed, negation
// not) with the worst-case-optimal strategy. It returns the head
// relation, exactly like Evaluate.
func GenericJoin(q *CQ, inst *rel.Instance) (*rel.Relation, error) {
	if q.HasNegation() {
		return nil, fmt.Errorf("cq: generic join handles positive queries")
	}
	out := rel.NewRelation(q.Head.Rel, len(q.Head.Args))
	project(out, q, joinBindings, inst)
	return out, nil
}

// joinBindings is evalBindings for the generic join: the variable order
// and the rows over it that satisfy the body and the inequalities; no
// rows means the result is empty.
func joinBindings(q *CQ, inst *rel.Instance) ([]string, bindings) {
	// Variable order: by the number of atoms holding the variable
	// (descending), then name — a standard static heuristic.
	freq := map[string]int{}
	var vars []string
	for _, a := range q.Body {
		for _, v := range a.Vars() {
			if freq[v]++; freq[v] == 1 {
				vars = append(vars, v)
			}
		}
	}
	slices.SortFunc(vars, func(x, y string) int {
		return cmp.Or(freq[y]-freq[x], cmp.Compare(x, y))
	})

	j := join{
		tries:  make([]trie, len(q.Body)),
		levels: make([][]cover, len(vars)),
		row:    make(rel.Tuple, len(vars)),
		out:    bindings{width: len(vars)},
	}
	for ai, a := range q.Body {
		m := NewMatcher(a)
		src := m.Relation(inst)
		if src == nil {
			return nil, bindings{}
		}
		var cols []int // the atom's column of each of its variables, in join order
		for l, v := range vars {
			if k := slices.Index(m.Vars, v); k >= 0 {
				j.levels[l] = append(j.levels[l], cover{ai, len(cols)})
				cols = append(cols, m.Cols[k])
			}
		}
		r := rel.NewRelationSize(a.Rel, len(cols), src.Len())
		t := make(rel.Tuple, len(cols))
		src.Each(func(s rel.Tuple) bool {
			if m.Admits(s) {
				for k, c := range cols {
					t[k] = s[c]
				}
				r.Add(t)
			}
			return true
		})
		if r.Len() == 0 {
			return nil, bindings{}
		}
		j.tries[ai] = trie{ts: r.Tuples(), lo: make([]int, len(cols)+1), hi: make([]int, len(cols)+1)}
		j.tries[ai].hi[0] = r.Len()
	}
	j.bind(0)
	pos := make(map[string]int, len(vars))
	for c, v := range vars {
		pos[v] = c
	}
	filterDiseqs(q, pos, make([]bool, len(q.Diseq)), &j.out)
	if j.out.n == 0 {
		return nil, bindings{}
	}
	return vars, j.out
}

// trie is one atom's admitted tuples, permuted into the join's variable
// order and sorted. The tuples extending the atom's first k bound
// values form the run [lo[k], hi[k]).
type trie struct {
	ts     []rel.Tuple
	lo, hi []int
}

// cover places a variable in an atom that holds it: the atom's trie,
// and the variable's column (its depth) there.
type cover struct{ atom, col int }

// join is the generic join's state: levels[l] covers the l-th variable
// of the order, row holds the values bound so far, and out collects the
// full rows.
type join struct {
	tries  []trie
	levels [][]cover
	row    rel.Tuple
	out    bindings
}

// bind binds the l-th variable to each value every covering atom's run
// holds, and the later variables under it. The atom with the smallest
// run leads: its run narrows to each value's subrun by a seek. Every
// other atom's cursor (lo at the next depth) only moves forward, and an
// atom whose run is exhausted ends the level.
func (j *join) bind(l int) {
	if l == len(j.levels) {
		j.out.add(j.row, nil, nil)
		return
	}
	cov := j.levels[l]
	d := 0
	for k, c := range cov {
		if j.tries[c.atom].size(c.col) < j.tries[cov[d].atom].size(cov[d].col) {
			d = k
		}
	}
	for _, c := range cov {
		t := &j.tries[c.atom]
		t.lo[c.col+1] = t.lo[c.col]
	}
	dt, dc := &j.tries[cov[d].atom], cov[d].col
next:
	for ; dt.lo[dc+1] < dt.hi[dc]; dt.lo[dc+1] = dt.hi[dc+1] {
		v := dt.ts[dt.lo[dc+1]][dc]
		dt.hi[dc+1] = dt.seek(dc, dt.lo[dc+1], v, true)
		for k, c := range cov {
			if k == d {
				continue
			}
			t := &j.tries[c.atom]
			i := t.seek(c.col, t.lo[c.col+1], v, false)
			if i == t.hi[c.col] {
				return
			}
			t.lo[c.col+1] = i
			if t.ts[i][c.col] != v {
				continue next
			}
			t.hi[c.col+1] = t.seek(c.col, i, v, true)
		}
		j.row[l] = v
		j.bind(l + 1)
	}
}

// size is the length of the run at depth col.
func (t *trie) size(col int) int { return t.hi[col] - t.lo[col] }

// seek returns the first index from i on, within the run at depth col,
// whose value at col is at least v — past v, if past is set — or the
// run's end. It gallops, then bisects, so moving a cursor a distance δ
// costs O(log δ).
func (t *trie) seek(col, i int, v rel.Value, past bool) int {
	hi := t.hi[col]
	before := func(i int) bool {
		x := t.ts[i][col]
		return x < v || past && x == v
	}
	if i == hi || !before(i) {
		return i
	}
	step := 1
	for i+step < hi && before(i+step) {
		i += step
		step *= 2
	}
	lo, end := i+1, min(i+step, hi) // before(i), and the answer is in [lo, end]
	for lo < end {
		if mid := int(uint(lo+end) >> 1); before(mid) {
			lo = mid + 1
		} else {
			end = mid
		}
	}
	return lo
}
