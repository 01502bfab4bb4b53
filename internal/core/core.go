// Package core is the library's front door: it ties the substrates —
// conjunctive queries, distribution policies, the parallel-correctness
// framework, the MPC simulator and its single-/multi-round algorithms,
// Datalog, monotonicity analysis, and transducer networks — into the
// two workflows the paper studies:
//
//   - Analyzer: static reasoning about one-round parallel evaluation —
//     parallel-correctness, transfer, containment, structural facts
//     (τ*, acyclicity), per Sections 3–4.
//   - Planner: the Section 3 menu (Menu: one row per MPC algorithm
//     runnable from a name — its home workload, the queries it fits,
//     its program as a function of plan and input), ChoosePlan to pick
//     a row, Plan.Program to turn it into rounds or refuse it, Execute
//     to run them on mpc.Simulate, the one in-process executor.
//   - CALM: running the coordination-free strategy that a class of the
//     monotonicity hierarchy of Figure 2 (a mono.Class, from
//     datalog.Classify for a program) prescribes on an asynchronous
//     transducer network, per Section 5: StrategyFor returns the
//     class's row of the CALM table, whose program and policy go to
//     transducer.Load.
package core

import (
	"mpclogic/internal/cq"
	"mpclogic/internal/mono"
	"mpclogic/internal/pc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
	"mpclogic/internal/transducer"
)

// Analyzer bundles the static-analysis entry points. A single Dict
// scopes all symbolic names used by one analysis session.
type Analyzer struct {
	Dict *rel.Dict
}

// NewAnalyzer returns an analyzer with a fresh name dictionary.
func NewAnalyzer() *Analyzer { return &Analyzer{Dict: rel.NewDict()} }

// ParseQuery parses a conjunctive query in rule syntax.
func (a *Analyzer) ParseQuery(src string) (*cq.CQ, error) {
	return cq.Parse(a.Dict, src)
}

// ParallelCorrect decides whether the one-round evaluation of q under
// pol is correct on all instances over the universe (Proposition 4.6),
// returning a human-readable explanation.
func (a *Analyzer) ParallelCorrect(q *cq.CQ, pol policy.Policy, universe []rel.Value) (bool, string, error) {
	ok, w, err := pc.ParallelCorrect(q, pol, universe)
	if err != nil {
		return false, "", err
	}
	if ok {
		return true, "every minimal valuation's required facts meet at some node (PC1)", nil
	}
	return false, w.String(), nil
}

// StronglyCorrect decides the stronger (PC0) condition.
func (a *Analyzer) StronglyCorrect(q *cq.CQ, pol policy.Policy, universe []rel.Value) (bool, string, error) {
	ok, w, err := pc.StronglySaturates(q, pol, universe)
	if err != nil {
		return false, "", err
	}
	if ok {
		return true, "every valuation's required facts meet at some node (PC0)", nil
	}
	return false, w.String(), nil
}

// Transfers decides parallel-correctness transfer from q to qp via the
// covers characterization (Proposition 4.13).
func (a *Analyzer) Transfers(q, qp *cq.CQ) (bool, string, error) {
	ok, w, err := pc.Transfers(q, qp)
	if err != nil {
		return false, "", err
	}
	if ok {
		return true, "Q covers Q′: every minimal valuation of Q′ is dominated", nil
	}
	return false, w.String(), nil
}

// Contained decides classic containment for pure CQs.
func (a *Analyzer) Contained(q, qp *cq.CQ) (bool, error) { return cq.Contained(q, qp) }

// Structure summarizes the structural properties driving algorithm
// choice and load bounds.
type Structure struct {
	Full         bool
	Boolean      bool
	SelfJoinFree bool
	Connected    bool
	Acyclic      bool
	// Tau is the optimal fractional edge packing value τ*; the
	// HyperCube load on skew-free data is O(m/p^{1/τ*}).
	Tau float64
	// Rho is the fractional edge cover number ρ* (AGM exponent).
	Rho float64
	// LoadExponent is 1/τ*: load = m/p^{LoadExponent}.
	LoadExponent float64
}

// Structure computes the structural report for q.
func (a *Analyzer) Structure(q *cq.CQ) (Structure, error) {
	s := Structure{
		Full:         q.IsFull(),
		Boolean:      q.IsBoolean(),
		SelfJoinFree: q.SelfJoinFree(),
		Connected:    cq.IsConnected(q),
		Acyclic:      cq.IsAcyclic(q),
	}
	pack, err := cq.FractionalEdgePacking(q)
	if err != nil {
		return s, err
	}
	s.Tau = pack.Value
	s.LoadExponent = 1 / pack.Value
	cover, err := cq.FractionalEdgeCover(q)
	if err != nil {
		return s, err
	}
	s.Rho = cover.Value
	return s, nil
}

// StrategyFor returns the row of the CALM table (transducer.Strategies)
// for a class: the coordination-free strategy the hierarchy prescribes
// (Theorems 5.3, 5.8, 5.12) with the policies it runs under, or the
// coordinated fallback for mono.None. Printed, the row describes the
// strategy.
func StrategyFor(c mono.Class) *transducer.Strategy {
	return transducer.StrategyFor(c)
}
