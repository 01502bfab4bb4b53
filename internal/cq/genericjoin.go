package cq

import (
	"fmt"
	"slices"
	"sort"

	"mpclogic/internal/rel"
)

// This file implements a worst-case-optimal "generic join" evaluator:
// variable-at-a-time evaluation where each variable's candidates are
// obtained by intersecting, per covering atom, the values consistent
// with the bindings so far — always iterating the smallest candidate
// set. Its running time is bounded by the AGM bound m^{ρ*} (ρ* = the
// fractional edge cover number this library computes by LP), unlike
// pairwise join plans which can exceed it by materializing large
// intermediates.
//
// The paper cites Chu, Balazinska and Suciu's empirical study pairing
// exactly this kind of sequential algorithm with the HyperCube
// shuffle (Section 3.1): HyperCube + worst-case-optimal local joins
// perform well on queries with large intermediate results.

// gjIndex indexes one atom's admissible tuples by successive prefixes
// of the atom's variables in the global elimination order.
type gjIndex struct {
	vars []string // the atom's distinct variables, in global order
	// level[k] maps the key of the first k variable values to the set
	// of values the (k+1)-th variable takes.
	level []map[string][]rel.Value
}

// GenericJoin evaluates a positive CQ (inequalities allowed, negation
// not) with the worst-case-optimal strategy. It returns the head
// relation, exactly like Evaluate.
func GenericJoin(q *CQ, inst *rel.Instance) (*rel.Relation, error) {
	if q.HasNegation() {
		return nil, fmt.Errorf("cq: generic join handles positive queries")
	}
	out := rel.NewRelation(q.Head.Rel, len(q.Head.Args))

	// Global variable order: by total frequency across atoms
	// (descending), then name — a standard static heuristic.
	freq := map[string]int{}
	for _, a := range q.Body {
		for _, v := range a.Vars() {
			freq[v]++
		}
	}
	order := make([]string, 0, len(freq))
	for v := range freq {
		order = append(order, v)
	}
	sort.Slice(order, func(i, j int) bool {
		if freq[order[i]] != freq[order[j]] {
			return freq[order[i]] > freq[order[j]]
		}
		return order[i] < order[j]
	})
	pos := map[string]int{}
	for i, v := range order {
		pos[v] = i
	}

	// Build one prefix-trie index per atom.
	idxs := make([]*gjIndex, len(q.Body))
	for ai, a := range q.Body {
		idx := buildGJIndex(a, inst, pos)
		if idx == nil {
			return out, nil // an atom has no admissible tuples
		}
		idxs[ai] = idx
	}

	// atomsOf[v] lists the atoms containing variable v.
	atomsOf := map[string][]int{}
	for ai, a := range q.Body {
		for _, v := range a.Vars() {
			atomsOf[v] = append(atomsOf[v], ai)
		}
	}

	binding := make(Valuation, len(order))
	var recurse func(level int) error
	recurse = func(level int) error {
		if level == len(order) {
			if !binding.SatisfiesDiseq(q) {
				return nil
			}
			h := make(rel.Tuple, len(q.Head.Args))
			for i, t := range q.Head.Args {
				if t.IsVar() {
					h[i] = binding[t.Var]
				} else {
					h[i] = t.Const
				}
			}
			out.Add(h)
			return nil
		}
		v := order[level]
		// Candidate sets from every covering atom; iterate the
		// smallest, probe the rest.
		type cand struct {
			values []rel.Value
			ai     int
		}
		var cands []cand
		for _, ai := range atomsOf[v] {
			vals := idxs[ai].candidates(binding)
			cands = append(cands, cand{vals, ai})
		}
		sort.Slice(cands, func(i, j int) bool { return len(cands[i].values) < len(cands[j].values) })
		if len(cands) == 0 {
			return fmt.Errorf("cq: variable %s occurs in no atom", v)
		}
		// Probe sets for the larger candidate lists — only worthwhile
		// when the iterated list is itself large, since the map is
		// rebuilt on every recursive call.
		probes := make([]map[rel.Value]bool, len(cands)-1)
		for i, c := range cands[1:] {
			if len(cands[0].values) > 32 && len(c.values) > 64 {
				m := make(map[rel.Value]bool, len(c.values))
				for _, x := range c.values {
					m[x] = true
				}
				probes[i] = m
			}
		}
	next:
		for _, val := range cands[0].values {
			for i, c := range cands[1:] {
				if probes[i] != nil {
					if !probes[i][val] {
						continue next
					}
				} else if !containsValue(c.values, val) {
					continue next
				}
			}
			binding[v] = val
			if err := recurse(level + 1); err != nil {
				return err
			}
			delete(binding, v)
		}
		return nil
	}
	if err := recurse(0); err != nil {
		return nil, err
	}
	return out, nil
}

// buildGJIndex indexes an atom's admissible tuples. A nil index means
// no tuples qualify.
func buildGJIndex(a Atom, inst *rel.Instance, globalPos map[string]int) *gjIndex {
	m := NewMatcher(a)
	src := m.Relation(inst)
	if src == nil {
		return nil
	}
	vars := slices.Clone(m.Vars)
	sort.Slice(vars, func(i, j int) bool { return globalPos[vars[i]] < globalPos[vars[j]] })
	cols := make([]int, len(vars)) // the position vars[k] is read from
	for k, v := range vars {
		cols[k] = m.Cols[slices.Index(m.Vars, v)]
	}
	idx := &gjIndex{vars: vars, level: make([]map[string][]rel.Value, len(vars))}
	for k := range idx.level {
		idx.level[k] = map[string][]rel.Value{}
	}
	seen := map[string]bool{}
	any := false
	src.Each(func(t rel.Tuple) bool {
		if !m.Admits(t) {
			return true
		}
		any = true
		// Insert into every prefix level, deduplicated.
		prefix := make(rel.Tuple, 0, len(vars))
		for k, c := range cols {
			key := prefix.Key()
			val := t[c]
			dedup := fmt.Sprintf("%d|%s|%d", k, key, int64(val))
			if !seen[dedup] {
				seen[dedup] = true
				idx.level[k][key] = append(idx.level[k][key], val)
			}
			prefix = append(prefix, val)
		}
		return true
	})
	if !any {
		return nil
	}
	return idx
}

// candidates returns the values this atom admits for its first
// variable not bound by the binding (which, by construction of the
// global order, is exactly the variable being extended).
func (idx *gjIndex) candidates(binding Valuation) []rel.Value {
	prefix := make(rel.Tuple, 0, len(idx.vars))
	for _, v := range idx.vars {
		val, ok := binding[v]
		if !ok {
			break
		}
		prefix = append(prefix, val)
	}
	if len(prefix) == len(idx.vars) {
		// All variables bound: the "candidate" question is membership;
		// callers never reach here because the extended variable is
		// unbound in some covering atom.
		return nil
	}
	return idx.level[len(prefix)][prefix.Key()]
}

func containsValue(vals []rel.Value, v rel.Value) bool {
	for _, x := range vals {
		if x == v {
			return true
		}
	}
	return false
}
