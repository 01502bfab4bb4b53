package datalog

import "fmt"

// Stratification assigns every IDB predicate a stratum such that
// positive dependencies stay within or below a stratum and negative
// dependencies point strictly below. Programs with a negative cycle
// are not stratifiable (win-move; use well-founded semantics instead).
type Stratification struct {
	// Stratum maps each IDB predicate to its stratum (0-based).
	Stratum map[string]int
	// Count is the number of strata.
	Count int
	// RulesByStratum groups rule indices by the stratum of their head.
	RulesByStratum [][]int
}

// Stratify computes a stratification, or an error when the program has
// a cycle through negation.
func Stratify(p *Program) (*Stratification, error) {
	idb := p.IDB()
	// strat[q] starts at 0; relax: q ≥ p for positive p in body of a
	// q-rule, q ≥ p+1 for negated IDB p. Classic Bellman-Ford style:
	// at most |idb| relaxation sweeps, else negative cycle.
	strat := map[string]int{}
	for q := range idb {
		strat[q] = 0
	}
	n := len(idb)
	for sweep := 0; sweep <= n; sweep++ {
		changed := false
		for _, r := range p.Rules {
			h := r.Head.Rel
			for _, a := range r.Body {
				if idb[a.Rel] && strat[h] < strat[a.Rel] {
					strat[h] = strat[a.Rel]
					changed = true
				}
			}
			for _, a := range r.Neg {
				if idb[a.Rel] && strat[h] < strat[a.Rel]+1 {
					strat[h] = strat[a.Rel] + 1
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if sweep == n {
			return nil, fmt.Errorf("datalog: program is not stratifiable (cycle through negation)")
		}
	}
	count := 0
	for _, s := range strat {
		if s+1 > count {
			count = s + 1
		}
	}
	if count == 0 {
		count = 1
	}
	st := &Stratification{Stratum: strat, Count: count, RulesByStratum: make([][]int, count)}
	for i, r := range p.Rules {
		s := strat[r.Head.Rel]
		st.RulesByStratum[s] = append(st.RulesByStratum[s], i)
	}
	return st, nil
}
