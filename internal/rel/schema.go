package rel

import (
	"fmt"
	"sort"
)

// Schema maps relation names to their arities.
type Schema map[string]int

// Declare adds (or confirms) a relation with the given arity. It returns
// an error if rel is already declared with a different arity.
func (s Schema) Declare(rel string, arity int) error {
	if a, ok := s[rel]; ok && a != arity {
		return fmt.Errorf("rel: relation %s declared with arity %d, got %d", rel, a, arity)
	}
	s[rel] = arity
	return nil
}

// Relations returns the relation names in sorted order.
func (s Schema) Relations() []string {
	out := make([]string, 0, len(s))
	for r := range s {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// MaxArity returns the largest arity in the schema (0 for empty).
func (s Schema) MaxArity() int {
	max := 0
	for _, a := range s {
		if a > max {
			max = a
		}
	}
	//lint:allow nondet-taint max over all map values is an order-insensitive fold
	return max
}

// AllFacts enumerates facts(U): every fact over the schema whose values
// are drawn from universe. The enumeration order is deterministic
// (relations sorted, tuples lexicographic in the order of universe).
// The number of facts is sum over relations of |universe|^arity, so this
// is only usable for small universes — exactly the regime in which the
// paper's decision procedures operate.
func (s Schema) AllFacts(universe []Value) []Fact {
	var out []Fact
	for _, r := range s.Relations() {
		a := s[r]
		if a > 0 && len(universe) == 0 {
			continue
		}
		idx := make([]int, a)
		for {
			t := make(Tuple, a)
			for i, j := range idx {
				t[i] = universe[j]
			}
			out = append(out, Fact{Rel: r, Tuple: t})
			// advance odometer
			i := a - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < len(universe) {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	return out
}
