// Package mpcnet executes MPC programs as real operating-system
// processes: one coordinator and p workers, each worker playing one
// simulated server, exchanging round fragments over loopback TCP on
// the same data plane the in-process TCP transport drives
// (internal/mpc/plane.go). The design goal is the repo's headline
// invariant extended across the process boundary — a program run by p
// workers produces the same output and the same logical trace, byte
// for byte, as the simulator.
//
// Everything a worker needs is a pure function of the ProgramSpec,
// core.Plan's wire form: the workload is regenerated from its table
// row and seed, core.Plan.Program rebuilds the rounds, and the worker's
// slice of the initial placement is the same k%p round-robin the
// simulator's LoadRoundRobin performs.
// That purity is what makes recovery trivial to reason about: a killed
// worker reloads the older of its two checkpoint slots — each a policy
// store image (policy.SaveStore/LoadStore, the module's one durable
// format) whose meta section is the round cursor — and re-executes;
// determinism guarantees the re-run publishes byte-identical fragments,
// so the rest of the cluster cannot tell a recovery from a slow network.
package mpcnet

import (
	"fmt"

	"mpclogic/internal/core"
	"mpclogic/internal/cq"
	"mpclogic/internal/gym"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// ProgramSpec is the complete, self-contained description of a run —
// core.Plan's wire form plus the generated input: every worker and the
// coordinator rebuild the same workload and program from it
// independently. It travels as JSON on the worker command line.
type ProgramSpec struct {
	// Program names the algorithm: one of core's (hypercube |
	// repartition | grouping | yannakakis | gym) over the workload's
	// query, or a fixed-shape program (tc over graph, cascade over
	// triangle).
	Program string `json:"program"`
	// P is the requested server count; the effective count may be
	// smaller for share-constrained programs (see Built.P).
	P int `json:"p"`
	// M sizes the synthetic workload (tuples per relation).
	M int `json:"m"`
	// Seed drives the routing hashes and the seeded generators (graph,
	// chain); triangle and join are functions of M and Skew alone.
	Seed uint64 `json:"seed"`
	// Workload names the input; empty means the program's home workload.
	Workload string `json:"workload,omitempty"`
	// Skew is the fraction of a triangle's or join's tuples sharing one
	// heavy join value.
	Skew float64 `json:"skew,omitempty"`
	// WCOJ makes the generic join the HyperCube round's local engine.
	WCOJ bool `json:"wcoj,omitempty"`
}

// Workload is one row of the workload table: a named generator and the
// canonical text of the query it is an input for (none for graph).
type Workload struct {
	Name, Query string
	gen         func(ProgramSpec) *rel.Instance
}

var workloads = []Workload{
	{"triangle", "H(x, y, z) :- R(x, y), S(y, z), T(z, x)", func(s ProgramSpec) *rel.Instance {
		if s.Skew > 0 {
			return workload.TriangleSkewed(s.M, s.Skew)
		}
		return workload.TriangleSkewFree(s.M)
	}},
	{"chain", "H(a, dd) :- R0(a, b), R1(b, c), R2(c, dd)", func(s ProgramSpec) *rel.Instance {
		inst, _ := workload.AcyclicChain(3, s.M, 0.3, int64(s.Seed))
		return inst
	}},
	{"join", "H(x, y, z) :- R(x, y), S(y, z)", func(s ProgramSpec) *rel.Instance {
		if s.Skew > 0 {
			return workload.JoinSkewed(s.M, s.Skew)
		}
		return workload.JoinSkewFree(s.M)
	}},
	{"graph", "", func(s ProgramSpec) *rel.Instance {
		return workload.RandomGraph(s.M/2+2, s.M, int64(s.Seed))
	}},
}

// home is the workload a program runs on when the spec names none.
var home = map[string]string{
	"hypercube": "triangle", "gym": "triangle", "cascade": "triangle",
	"yannakakis": "chain", "repartition": "join", "grouping": "join", "tc": "graph",
}

// WorkloadFor returns the named row of the table; an empty name means
// program's home, and the first row for a program without one (where
// the planner starts before a program is chosen, and where an unknown
// program is left for Build to reject).
func WorkloadFor(name, program string) (*Workload, error) {
	if name == "" {
		name = home[program]
	}
	for i := range workloads {
		if name == "" || workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("mpcnet: unknown workload %q (want triangle | chain | join | graph)", name)
}

// CQ parses the row's query.
func (w *Workload) CQ() (*cq.CQ, error) {
	if w.Query == "" {
		return nil, fmt.Errorf("mpcnet: workload %s is no conjunctive query's input", w.Name)
	}
	return cq.Parse(rel.NewDict(), w.Query)
}

// Built is a spec elaborated into an executable program: the rounds,
// the full input instance, and the effective server count. Build is
// deterministic, so coordinator and workers agree on every field
// without communicating.
type Built struct {
	Rounds []mpc.Round
	Input  *rel.Instance
	P      int
}

// Build elaborates spec: the workload table resolves the input and its
// query, and core.Plan.Program turns the algorithm name into rounds —
// all of it checked before anything is generated. Only the two
// fixed-shape programs are elaborated here, each bound to its home row:
// tc is not a CQ and its depth is a function of the input, cascade is
// written for the triangle alone. Build must be called with identical
// specs on every process of a run.
func Build(spec ProgramSpec) (*Built, error) {
	if spec.P <= 0 {
		return nil, fmt.Errorf("mpcnet: spec needs at least one server (got p=%d)", spec.P)
	}
	if spec.M <= 0 {
		return nil, fmt.Errorf("mpcnet: spec needs a positive workload size (got m=%d)", spec.M)
	}
	w, err := WorkloadFor(spec.Workload, spec.Program)
	if err != nil {
		return nil, err
	}
	switch spec.Program {
	case "tc", "cascade":
		if w.Name != home[spec.Program] || spec.WCOJ {
			return nil, &core.PlanError{Algorithm: core.Algorithm(spec.Program),
				Err: fmt.Errorf("runs on the %s workload only, and not with the generic join", home[spec.Program])}
		}
		b := &Built{Input: w.gen(spec), P: spec.P}
		if spec.Program == "tc" {
			b.Rounds = tcProgram(spec.P, spec.Seed, b.Input)
		} else {
			b.Rounds = gym.CascadeTriangleProgram(spec.P, spec.Seed)
		}
		return b, nil
	}
	q, err := w.CQ()
	if err != nil {
		return nil, err
	}
	plan := core.Plan{Algorithm: core.Algorithm(spec.Program), Query: q, Servers: spec.P, Seed: spec.Seed, WCOJ: spec.WCOJ}
	rounds, p, err := plan.Program()
	if err != nil {
		return nil, err
	}
	return &Built{Rounds: rounds, Input: w.gen(spec), P: p}, nil
}

// WorkerSlice is worker i's share of the initial placement: fact k of
// the input's enumeration goes to server k%p — exactly the simulator's
// LoadRoundRobin, so the distributed initial state matches the
// in-process reference fact for fact.
func WorkerSlice(input *rel.Instance, p, i int) *rel.Instance {
	out := rel.NewInstance()
	k := 0
	input.Each(func(f rel.Fact) bool {
		if k%p == i {
			out.Add(f)
		}
		k++
		return true
	})
	return out
}

// tcCompute is one semi-naive-free TC step: the new state keeps
// everything received, seeds TC from E, and extends it by one E-edge.
// Routing colocates TC(a,b) and E(b,c) at h(b), so the join is local.
func tcCompute(_ int, local *rel.Instance) *rel.Instance {
	out := rel.NewInstance()
	out.AddAll(local)
	e := local.Relation("E")
	if e == nil {
		return out
	}
	e.Each(func(t rel.Tuple) bool {
		out.Add(rel.NewFact("TC", t[0], t[1]))
		return true
	})
	if tc := local.Relation("TC"); tc != nil {
		rel.HashJoin("⋈", tc, e, []int{1}, []int{0}).Each(func(t rel.Tuple) bool {
			out.Add(rel.NewFact("TC", t[0], t[3]))
			return true
		})
	}
	return out
}

// tcProgram unrolls naive transitive closure to its fixpoint depth on
// the given graph: each round routes E by source and TC by target to
// colocate one join step. The depth is a pure function of the graph
// (tcSteps), so the static program is a pure function of (p, seed,
// graph) and every process derives the identical round list.
func tcProgram(p int, seed uint64, graph *rel.Instance) []mpc.Round {
	steps := tcSteps(graph)
	rounds := make([]mpc.Round, steps)
	for i := range rounds {
		rounds[i] = mpc.Round{
			Name: fmt.Sprintf("tc-step-%d", i),
			Route: mpc.ByRelation(map[string]mpc.Router{
				"E":  mpc.HashOn(p, []int{0}, seed),
				"TC": mpc.HashOn(p, []int{1}, seed),
			}),
			Compute: tcCompute,
		}
	}
	return rounds
}

// tcSteps counts the rounds the unrolled program needs on a graph of E
// edges: global applications of tcCompute until one adds nothing (that
// final confirming step included, mirroring a fixpoint engine's last
// pass). Build runs on the coordinator and on every worker, so the
// count is taken semi-naively rather than by running tcCompute: step 1
// adds Δ₁ = E, step s > 1 adds Δₛ = (Δₛ₋₁ ⋈ E) ∖ TC — everything else
// tcCompute would derive at step s it derived before — and the answer
// is the first s with Δₛ = ∅.
func tcSteps(graph *rel.Instance) int {
	type pair [2]rel.Value
	succ := make(map[rel.Value][]rel.Value)
	tc := make(map[pair]struct{})
	var delta []pair
	if e := graph.Relation("E"); e != nil {
		e.Each(func(t rel.Tuple) bool {
			succ[t[0]] = append(succ[t[0]], t[1])
			tc[pair{t[0], t[1]}] = struct{}{}
			delta = append(delta, pair{t[0], t[1]})
			return true
		})
	}
	steps := 1
	for ; len(delta) > 0; steps++ {
		var next []pair
		for _, d := range delta {
			for _, c := range succ[d[1]] {
				if _, old := tc[pair{d[0], c}]; !old {
					tc[pair{d[0], c}] = struct{}{}
					next = append(next, pair{d[0], c})
				}
			}
		}
		delta = next
	}
	return steps
}
