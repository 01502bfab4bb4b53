// Package stream implements a simplified form of the distributed
// streaming model with finite memory of Neven, Schweikardt, Servais
// and Tan (ICDT 2015, cited in Section 3.2 of the survey): reducers
// are modelled as register automata — finite control, a fixed number
// of value registers and boolean flags — that scan their key-group a
// bounded number of passes and emit output facts. Grouping by join key
// is what makes finite memory sufficient: the fragment expressible
// this way is (a large part of) the semijoin algebra, exactly the
// paper's point, while full joins need per-group output proportional
// to the group size squared and fall outside the constant-register,
// constant-pass model.
package stream

import (
	"fmt"

	"mpclogic/internal/rel"
)

// State is the entire memory of a machine while processing one group:
// fixed-size register and flag banks. The runtime allocates it from
// the automaton's declared sizes, so a step function cannot smuggle
// unbounded state.
type State struct {
	Regs  []rel.Value
	Flags []bool
}

// Step processes one fact of the group during one pass and returns the
// facts to emit. It may mutate the fixed-size state only.
type Step func(pass int, st *State, f rel.Fact) []rel.Fact

// Automaton is a finite-memory group processor.
type Automaton struct {
	Name      string
	Registers int
	Flags     int
	Passes    int
	Step      Step
	// EndPass, if set, runs after each pass (emission on end-of-group
	// markers, e.g. for antijoin).
	EndPass func(pass int, st *State) []rel.Fact
}

// KeyFunc extracts the grouping key of a fact, or ok=false when the
// fact is not part of the stream this network processes.
type KeyFunc func(f rel.Fact) (rel.Tuple, bool)

// Network is a set of machines consuming a distributed stream: facts
// are routed to machines by key hash, grouped by exact key, and each
// group is processed independently by a fresh automaton state.
type Network struct {
	Machines  int
	Key       KeyFunc
	Automaton Automaton
}

// Stats reports the resource profile of a run — the quantities the
// finite-memory model is about.
type Stats struct {
	Groups       int
	LargestGroup int
	// MemoryPerGroup is the fixed register+flag footprint: the model's
	// claim is that this does not grow with the data.
	MemoryPerGroup int
	FactsProcessed int
}

// Run processes the stream. Facts are delivered in the given order
// (the stream order); within a machine, groups are independent.
func (n *Network) Run(streamOrder []rel.Fact) (*rel.Instance, *Stats, error) {
	if n.Machines <= 0 {
		return nil, nil, fmt.Errorf("stream: need at least one machine")
	}
	a := n.Automaton
	if a.Step == nil || a.Passes <= 0 {
		return nil, nil, fmt.Errorf("stream: automaton needs a step function and ≥1 pass")
	}
	// Route and group, preserving arrival order within each group
	// (the automaton must be correct for any order; tests shuffle).
	type group struct {
		key   rel.Tuple
		facts []rel.Fact
	}
	perMachine := make([]map[string]*group, n.Machines)
	for i := range perMachine {
		perMachine[i] = map[string]*group{}
	}
	st := &Stats{MemoryPerGroup: a.Registers + a.Flags}
	for _, f := range streamOrder {
		key, ok := n.Key(f)
		if !ok {
			continue
		}
		m := int(key.Hash() % uint64(n.Machines))
		g, exists := perMachine[m][key.Key()]
		if !exists {
			g = &group{key: key}
			perMachine[m][key.Key()] = g
			st.Groups++
		}
		g.facts = append(g.facts, f)
	}

	out := rel.NewInstance()
	for _, groups := range perMachine {
		for _, g := range groups {
			if len(g.facts) > st.LargestGroup {
				st.LargestGroup = len(g.facts)
			}
			state := &State{
				Regs:  make([]rel.Value, a.Registers),
				Flags: make([]bool, a.Flags),
			}
			for pass := 0; pass < a.Passes; pass++ {
				for _, f := range g.facts {
					st.FactsProcessed++
					for _, e := range a.Step(pass, state, f) {
						out.Add(e)
					}
				}
				if a.EndPass != nil {
					for _, e := range a.EndPass(pass, state) {
						out.Add(e)
					}
				}
			}
		}
	}
	return out, st, nil
}

// ——— The semijoin-algebra automata of the expressible fragment ———

// KeyOn routes facts of the listed relations by the given column per
// relation.
func KeyOn(cols map[string][]int) KeyFunc {
	return func(f rel.Fact) (rel.Tuple, bool) {
		c, ok := cols[f.Rel]
		if !ok {
			return nil, false
		}
		return f.Tuple.Project(c), true
	}
}

// SemiJoin builds the two-pass automaton computing left ⋉ right on the
// grouping key: pass 0 raises a flag if the group contains a
// right-fact; pass 1 emits the left-facts when the flag is up.
// One flag, zero registers — finite memory regardless of group size.
func SemiJoin(left, right string) Automaton {
	return Automaton{
		Name:  fmt.Sprintf("%s⋉%s", left, right),
		Flags: 1, Passes: 2,
		Step: func(pass int, st *State, f rel.Fact) []rel.Fact {
			switch pass {
			case 0:
				if f.Rel == right {
					st.Flags[0] = true
				}
			case 1:
				if f.Rel == left && st.Flags[0] {
					return []rel.Fact{f}
				}
			}
			return nil
		},
	}
}
