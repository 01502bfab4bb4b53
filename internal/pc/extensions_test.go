package pc

import (
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/mpc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// CoversFull agrees with the general Covers on full queries (and is
// the tractable fragment of Theorem 4.14's discussion).
func TestCoversFullAgreesWithGeneral(t *testing.T) {
	d := rel.NewDict()
	fulls := []*cq.CQ{
		cq.MustParse(d, "H(x, y) :- R(x, y)"),
		cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z)"),
		cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)"),
		cq.MustParse(d, "H(x, y) :- R(x, y), S(y, x)"),
	}
	for _, q := range fulls {
		for _, qp := range fulls {
			fast, _, err := CoversFull(q, qp)
			if err != nil {
				t.Fatal(err)
			}
			slow, _, err := Covers(q, qp)
			if err != nil {
				t.Fatal(err)
			}
			if fast != slow {
				t.Errorf("CoversFull(%v, %v) = %v, Covers = %v", q, qp, fast, slow)
			}
		}
	}
	notFull := cq.MustParse(d, "H(x) :- R(x, y)")
	if _, _, err := CoversFull(notFull, fulls[0]); err == nil {
		t.Errorf("non-full query accepted")
	}
}

func TestGeneralizedEvalUnionMatchesDistributedEval(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, z) :- R(x, y), S(y, z)")
	i := rel.MustInstance(d, "R(a,b)", "S(b,c)", "R(c,d)", "S(d,e)")
	pol := &policy.Hash{Nodes: 3}
	got, err := GeneralizedEval([]*cq.CQ{q}, UnionAgg, pol, i)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(DistributedEval(q, pol, i)) {
		t.Errorf("union aggregator deviates from [Q,P](I)")
	}
}

func TestGeneralizedEvalPerNodeQueries(t *testing.T) {
	d := rel.NewDict()
	// Node 0 evaluates the R-half, node 1 the S-half of a union-like
	// rewriting; the aggregator is union and the reference is a UCQ
	// simulated by two per-node CQs with the same head.
	q0 := cq.MustParse(d, "H(x) :- R(x, x)")
	q1 := cq.MustParse(d, "H(x) :- S(x)")
	pol := &policy.Func{
		Nodes: 2,
		Resp: func(κ policy.Node, f rel.Fact) bool {
			if f.Rel == "R" {
				return κ == 0
			}
			return κ == 1
		},
	}
	i := rel.MustInstance(d, "R(a,a)", "R(a,b)", "S(c)")
	got, err := GeneralizedEval([]*cq.CQ{q0, q1}, UnionAgg, pol, i)
	if err != nil {
		t.Fatal(err)
	}
	want := rel.MustInstance(d, "H(a)", "H(c)")
	if !got.Equal(want) {
		t.Errorf("per-node queries: got %v want %v", got.StringWith(d), want.StringWith(d))
	}
	// Wrong query count is rejected.
	if _, err := GeneralizedEval([]*cq.CQ{q0, q1, q1}, UnionAgg, pol, i); err == nil {
		t.Errorf("wrong query count accepted")
	}
}

func TestIntersectionAggregator(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x) :- R(x)")
	// Replication: every node computes the same result, intersection =
	// union = truth.
	repl := &policy.Replicate{Nodes: 3}
	i := rel.MustInstance(d, "R(a)", "R(b)")
	got, err := GeneralizedEval([]*cq.CQ{q}, IntersectionAgg, repl, i)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(cq.Output(q, i)) {
		t.Errorf("intersection under replication wrong")
	}
	// Partitioning: intersection loses everything not shared.
	hash := &policy.Hash{Nodes: 2}
	got2, err := GeneralizedEval([]*cq.CQ{q}, IntersectionAgg, hash, i)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Len() != 0 {
		t.Errorf("intersection over a partition should be empty, got %v", got2)
	}
	if IntersectionAgg(nil).Len() != 0 {
		t.Errorf("empty intersection not empty")
	}
}

func TestGeneralizedCorrectBounded(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x) :- R(x, x)")
	repl := &policy.Replicate{Nodes: 2}
	ok, cex, err := GeneralizedCorrectBounded(q, []*cq.CQ{q}, UnionAgg, repl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("replication incorrect: cex %v", cex)
	}
	// A policy dropping R entirely is incorrect, with a counterexample.
	drop := &policy.Func{Nodes: 2, Resp: func(policy.Node, rel.Fact) bool { return false }}
	ok, cex, err = GeneralizedCorrectBounded(q, []*cq.CQ{q}, UnionAgg, drop, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok || cex == nil {
		t.Errorf("dropping policy accepted")
	}
	// A constant that occurs only in a node's query belongs to the
	// search universe: the nodes lose exactly x = 7, which only an
	// instance holding R(7) shows.
	ref := cq.MustParse(d, "H(x) :- R(x)")
	not7 := cq.MustParse(d, "H(x) :- R(x), x != 7")
	ok, cex, err = GeneralizedCorrectBounded(ref, []*cq.CQ{not7}, UnionAgg, repl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok || cex == nil || !cex.Contains(rel.NewFact("R", 7)) {
		t.Errorf("per-node query dropping x = 7 accepted: ok %v, cex %v", ok, cex)
	}
}

// Multi-round correctness: the cascaded two-round join plan computes
// the 2-path query on all bounded instances and placements.
func TestMultiRoundCorrectBounded(t *testing.T) {
	d := rel.NewDict()
	ref := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z)")
	algo := func(p int) []mpc.Round {
		return []mpc.Round{
			{
				Name: "ship-R",
				Route: mpc.ByRelation(map[string]mpc.Router{
					"R": mpc.HashOn(p, []int{1}, 3),
				}),
				Keep: func(f rel.Fact) bool { return f.Rel == "S" },
			},
			{
				Name: "ship-S-and-join",
				Route: mpc.ByRelation(map[string]mpc.Router{
					"S": mpc.HashOn(p, []int{0}, 3),
				}),
				Keep: func(f rel.Fact) bool { return f.Rel == "R" },
				Compute: func(_ int, local *rel.Instance) *rel.Instance {
					return cq.Output(ref, local)
				},
			},
		}
	}
	ok, cex, err := MultiRoundCorrectBounded(ref, algo, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("two-round join incorrect on %v", cex)
	}

	// A broken plan (second round loses the S facts entirely) is
	// caught with a counterexample.
	broken := func(p int) []mpc.Round {
		rs := algo(p)
		rs[1].Route = mpc.ByRelation(nil) // S dropped
		return rs
	}
	ok, cex, err = MultiRoundCorrectBounded(ref, broken, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("broken plan accepted")
	}
	if cex == nil {
		t.Errorf("no counterexample for broken plan")
	}
}

func TestMultiRoundCorrectOn(t *testing.T) {
	d := rel.NewDict()
	ref := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z)")
	i := rel.MustInstance(d, "R(a,b)", "S(b,c)")
	algo := func(p int) []mpc.Round {
		return []mpc.Round{{
			Route: mpc.Broadcast(p),
			Compute: func(_ int, local *rel.Instance) *rel.Instance {
				return cq.Output(ref, local)
			},
		}}
	}
	ok, err := multiRoundCorrectFrom(ref, algo, 3, i, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("broadcast plan incorrect")
	}
}

// The bounded checkers share one instance search and keep every
// refusal: relations used at two arities across the compared queries,
// an instance space past cq.MaxInstanceSpace, and an error of the
// per-instance check all surface as errors, never as verdicts.
func TestBoundedCheckersRefuse(t *testing.T) {
	d := rel.NewDict()
	unary := cq.MustParse(d, "H(x) :- R(x)")
	binary := cq.MustParse(d, "H(x) :- R(x, x)")
	repl := &policy.Replicate{Nodes: 2}
	if _, _, err := GeneralizedCorrectBounded(unary, []*cq.CQ{binary}, UnionAgg, repl, 2); err == nil {
		t.Errorf("R/1 against R/2 accepted")
	}
	if _, _, err := GeneralizedCorrectBounded(unary, []*cq.CQ{unary, unary, unary}, UnionAgg, repl, 2); err == nil {
		t.Errorf("three queries for two nodes accepted")
	}
	if _, err := ParallelCorrectNegBounded(binary, repl, 6); err == nil {
		t.Errorf("2^36 instances accepted")
	}
	failing := func(p int) []mpc.Round {
		return []mpc.Round{{Route: mpc.RouterFunc(func(rel.Fact) []int { return []int{p} })}}
	}
	if _, _, err := MultiRoundCorrectBounded(unary, failing, 2, 1); err == nil {
		t.Errorf("a round routing outside the cluster accepted")
	}
	neg := cq.MustParseUCQ(d, "H(x) :- R(x), not S(x)")
	if _, _, err := SaturatesUCQ(neg, repl, d.Values("a")); err == nil {
		t.Errorf("UCQ¬ accepted by SaturatesUCQ")
	}
}
