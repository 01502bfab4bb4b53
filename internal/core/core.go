// Package core is the library's front door: it ties the substrates —
// conjunctive queries, distribution policies, the parallel-correctness
// framework, the MPC simulator and its single-/multi-round algorithms,
// Datalog, monotonicity analysis, and transducer networks — into the
// two workflows the paper studies:
//
//   - Analyzer: static reasoning about one-round parallel evaluation —
//     parallel-correctness, transfer, containment, structural facts
//     (τ*, acyclicity), per Sections 3–4.
//   - Planner: choosing and executing an MPC evaluation plan for a
//     conjunctive query (HyperCube, repartition/grouping join,
//     Yannakakis, GYM), per Section 3.
//   - CALM: classifying queries/programs in the monotonicity hierarchy
//     of Figure 2 and running the matching coordination-free strategy
//     on an asynchronous transducer network, per Section 5.
package core

import (
	"mpclogic/internal/cq"
	"mpclogic/internal/datalog"
	"mpclogic/internal/mono"
	"mpclogic/internal/pc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
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

// Minimize returns the core of a pure CQ (fewest-atom equivalent).
func (a *Analyzer) Minimize(q *cq.CQ) (*cq.CQ, error) { return cq.Minimize(q) }

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

// CALMClass is a position in the Figure 2 hierarchy.
type CALMClass string

// The monotonicity classes of Section 5.2, plus NotCoordinationFree
// for queries outside Mdisjoint.
const (
	ClassM                   CALMClass = "M"
	ClassMdistinct           CALMClass = "Mdistinct"
	ClassMdisjoint           CALMClass = "Mdisjoint"
	ClassNotCoordinationFree CALMClass = "coordination-required"
)

// ClassifyQuery places a black-box query in the hierarchy by bounded
// model checking over the given schema and universe (exact relative to
// the bound). It returns the strongest class that holds.
func ClassifyQuery(q mono.Query, schema rel.Schema, universe []rel.Value) (CALMClass, error) {
	if rep, err := mono.IsMonotone(q, schema, universe); err != nil {
		return "", err
	} else if rep.Holds {
		return ClassM, nil
	}
	if rep, err := mono.IsDomainDistinctMonotone(q, schema, universe); err != nil {
		return "", err
	} else if rep.Holds {
		return ClassMdistinct, nil
	}
	if rep, err := mono.IsDomainDisjointMonotone(q, schema, universe); err != nil {
		return "", err
	} else if rep.Holds {
		return ClassMdisjoint, nil
	}
	return ClassNotCoordinationFree, nil
}

// ClassifyProgram places a Datalog program syntactically (effective
// syntax, Section 5.3): positive → M, semi-positive → Mdistinct,
// semi-connected stratified → Mdisjoint.
func ClassifyProgram(p *datalog.Program) CALMClass {
	switch p2 := datalog.Classify(p); p2.MonotonicityClass() {
	case "M":
		return ClassM
	case "Mdistinct":
		return ClassMdistinct
	case "Mdisjoint":
		return ClassMdisjoint
	default:
		return ClassNotCoordinationFree
	}
}

// StrategyFor describes the coordination-free evaluation strategy the
// hierarchy prescribes for a class (Theorems 5.3, 5.8, 5.12).
func StrategyFor(c CALMClass) string {
	switch c {
	case ClassM:
		return "naive broadcast: output Q(state) as data arrives (Theorem 5.3; F0 = M)"
	case ClassMdistinct:
		return "policy-aware broadcast: output Q(state|C) for distinct-complete C (Theorem 5.8; F1 = Mdistinct)"
	case ClassMdisjoint:
		return "domain-guided pulls: output Q on unions of complete components (Theorem 5.12; F2 = Mdisjoint)"
	default:
		return "no coordination-free strategy exists; use an explicit coordination protocol"
	}
}

// EvalDatalog runs a stratified Datalog program centrally.
func EvalDatalog(p *datalog.Program, edb *rel.Instance, outRel string) (*rel.Instance, error) {
	return datalog.EvalQuery(p, edb, outRel)
}
