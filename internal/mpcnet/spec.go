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
// core.Plan's wire form, but its share of the input, which the
// coordinator deals once: the coordinator generates the workload from
// its table row and seed and deals it with the simulator's round-robin
// rule (mpc.DealRoundRobin, what LoadRoundRobin performs), and a
// worker's hello is answered with its share as one mpc frame. The
// worker rebuilds the rounds from the plan alone — it generates the
// workload only for a row of core's menu whose program reads its
// input. The package is a runtime: it knows workloads and processes,
// and no algorithm — which ones exist, what each fits and where each is
// at home is core's menu.
// That purity is what keeps recovery trivial to reason about: the share
// is fixed before any worker starts, so a respawn's hello is re-sent the
// same bytes; the respawn reloads the older of its two checkpoint slots
// — each a policy store image (policy.SaveStore/LoadStore, the module's
// one durable format) whose meta section is the round cursor — and
// re-executes; determinism guarantees the re-run publishes
// byte-identical fragments, so the rest of the cluster cannot tell a
// recovery from a slow network.
package mpcnet

import (
	"fmt"
	"sync"

	"mpclogic/internal/core"
	"mpclogic/internal/cq"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// ProgramSpec is the complete, self-contained description of a run —
// core.Plan's wire form plus the generated input: every worker and the
// coordinator rebuild the same program from it independently, and the
// coordinator the workload. It travels as JSON on the worker command
// line.
type ProgramSpec struct {
	// Program names the algorithm, a row of core.Menu.
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

// WorkloadFor returns the named row of the table; an empty name means
// program's home on core's menu, and the first row for a program
// without one (where the planner starts before a program is chosen,
// and where an unknown program is left for Build to reject).
func WorkloadFor(name, program string) (*Workload, error) {
	if row := core.RowOf(core.Algorithm(program)); name == "" && row != nil {
		name = row.Home
	}
	for i := range workloads {
		if name == "" || workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("mpcnet: unknown workload %q (want triangle | chain | join | graph)", name)
}

// CQ parses the row's query; graph, the input of no query, has none.
func (w *Workload) CQ() (*cq.CQ, error) {
	if w.Query == "" {
		return nil, nil
	}
	return cq.Parse(rel.NewDict(), w.Query)
}

// Built is a spec elaborated into an executable program: the rounds,
// the full input instance, and the effective server count. Elaboration
// is deterministic, so coordinator and workers agree on the rounds and
// the count without communicating.
type Built struct {
	Rounds []mpc.Round
	Input  *rel.Instance
	P      int
}

// Build elaborates spec: the workload table resolves the input and its
// query, and the core.Plan the spec is the wire form of — checked
// against the menu first, so a spec it refuses is refused before
// anything is generated — turns the algorithm name into rounds. Build
// is deterministic: every call with one spec builds the same program.
func Build(spec ProgramSpec) (*Built, error) {
	built, input, err := elaborate(spec)
	if err != nil {
		return nil, err
	}
	built.Input = input()
	return built, nil
}

// elaborate is Build without the input: Built.Input is left nil, and
// input generates the workload — once, however often it is called —
// for the caller that wants it. The row's program calls it only if the
// menu's row reads its input, so a worker, which starts from the share
// the coordinator dealt it, generates nothing for any other row.
func elaborate(spec ProgramSpec) (*Built, func() *rel.Instance, error) {
	if spec.P <= 0 {
		return nil, nil, fmt.Errorf("mpcnet: spec needs at least one server (got p=%d)", spec.P)
	}
	if spec.M <= 0 {
		return nil, nil, fmt.Errorf("mpcnet: spec needs a positive workload size (got m=%d)", spec.M)
	}
	w, err := WorkloadFor(spec.Workload, spec.Program)
	if err != nil {
		return nil, nil, err
	}
	q, err := w.CQ()
	if err != nil {
		return nil, nil, err
	}
	plan := core.Plan{Algorithm: core.Algorithm(spec.Program), Query: q, Servers: spec.P, Seed: spec.Seed, WCOJ: spec.WCOJ}
	row, err := plan.Row()
	if err != nil {
		return nil, nil, err
	}
	input := sync.OnceValue(func() *rel.Instance { return w.gen(spec) })
	rounds, p, err := row.Program(&plan, input)
	if err != nil {
		return nil, nil, err
	}
	return &Built{Rounds: rounds, P: p}, input, nil
}
