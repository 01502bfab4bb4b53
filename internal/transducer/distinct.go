package transducer

import (
	"strings"

	"mpclogic/internal/rel"
)

// This file holds the two output rules of Section 5.2.2's policy-aware
// strategies: nodes can query the distribution policy P^H on facts
// over their local active domain, which lets them convert local
// absence into global absence and thereby evaluate Mdistinct queries
// without coordination (Theorem 5.8). Both run on the Broadcast body.

// OpenTriangle is Example 5.4's program, verbatim: broadcast local
// edges; when edges E(a,b), E(b,c) are known, E(c,a) is not, and this
// node is responsible for E(c,a), output the open triangle (a,b,c).
// Output facts are H(a,b,c).
func OpenTriangle() *Broadcast {
	return &Broadcast{Output: openTriangleRule}
}

func openTriangleRule(ctx *Context) {
	e := ctx.State().Relation("E")
	if e == nil {
		return
	}
	e.Each(func(ab rel.Tuple) bool {
		e.Each(func(bc rel.Tuple) bool {
			if ab[1] != bc[0] {
				return true
			}
			closing := rel.NewFact("E", bc[1], ab[0])
			if ctx.State().Contains(closing) {
				return true
			}
			if ctx.ResponsibleFor(closing) {
				ctx.Output(rel.NewFact("H", ab[0], ab[1], bc[1]))
			}
			return true
		})
		return true
	})
}

// DistinctComplete is the generic strategy for Q ∈ Mdistinct over the
// given input schema (Section 5.2.2): broadcast every fact and every
// absence this node can vouch for — a candidate fact over the local
// active domain that this node is responsible for and does not hold
// is nowhere — and output Q(state|C) for every value set C that is
// distinct-complete: each candidate fact over C is known present or
// known absent. Sound for Q ∈ Mdistinct (Lemma 5.7); complete when
// every absent fact has a responsible node to publish it. On the
// ideal distribution a node vouches for everything itself.
func DistinctComplete(q Query, schema rel.Schema) *Broadcast {
	return &Broadcast{Output: func(ctx *Context) { distinctCompleteRule(ctx, q, schema) }}
}

// absentPrefix marks absences: ¬R(ā) says R(ā) is not in the global
// instance. They are statements about the input that nothing counts
// or waits on, so they travel as data, not control.
const absentPrefix = "¬"

func absence(f rel.Fact) rel.Fact { return rel.Fact{Rel: absentPrefix + f.Rel, Tuple: f.Tuple} }

// maxExhaustiveADom caps the exhaustive enumeration of value sets;
// larger active domains fall back to one greedy maximal C.
const maxExhaustiveADom = 12

func distinctCompleteRule(ctx *Context, q Query, schema rel.Schema) {
	state, data := ctx.State(), dataFacts(ctx.State())
	adom := data.ADom().Sorted()
	for _, f := range schema.AllFacts(adom) {
		if a := absence(f); !state.Contains(f) && !state.Contains(a) && ctx.ResponsibleFor(f) && state.Add(a) {
			ctx.Broadcast(a)
		}
	}
	input := data.Filter(func(f rel.Fact) bool { return !strings.HasPrefix(f.Rel, absentPrefix) })
	// unknown lists the candidate facts over C whose status this node
	// cannot determine; C is distinct-complete when there are none.
	unknown := func(c rel.ValueSet) []rel.Fact {
		var out []rel.Fact
		for _, f := range schema.AllFacts(c.Sorted()) {
			if !state.Contains(f) && !state.Contains(absence(f)) {
				out = append(out, f)
			}
		}
		return out
	}
	if len(adom) > maxExhaustiveADom {
		// Greedy: drop the most conflicted value until C is complete.
		c := rel.NewValueSet(adom...)
		for len(c) > 0 {
			open := unknown(c)
			if len(open) == 0 {
				outputAll(ctx, q(input.Induced(c)))
				return
			}
			conflicts := map[rel.Value]int{}
			for _, f := range open {
				for v := range f.ADom() {
					conflicts[v]++
				}
			}
			worst, worstN := rel.Value(0), -1
			for v, n := range conflicts {
				if n > worstN || (n == worstN && v < worst) {
					worst, worstN = v, n
				}
			}
			if worstN < 0 {
				return // only nullary facts are open: no value to drop
			}
			delete(c, worst)
		}
		return
	}
	for mask := 1; mask < 1<<len(adom); mask++ {
		c := rel.ValueSet{}
		for b, v := range adom {
			if mask>>b&1 != 0 {
				c.Add(v)
			}
		}
		if len(unknown(c)) == 0 {
			outputAll(ctx, q(input.Induced(c)))
		}
	}
}
