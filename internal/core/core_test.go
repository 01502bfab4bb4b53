package core

import (
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/datalog"
	"mpclogic/internal/mono"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

func TestAnalyzerParallelCorrect(t *testing.T) {
	a := NewAnalyzer()
	q, err := a.ParseQuery("H(x, z) :- R(x, y), R(y, z), R(x, x)")
	if err != nil {
		t.Fatal(err)
	}
	ab := rel.MustFact(a.Dict, "R(a,b)")
	ba := rel.MustFact(a.Dict, "R(b,a)")
	pol := &policy.Func{
		Nodes: 2,
		Resp: func(κ policy.Node, f rel.Fact) bool {
			if κ == 0 {
				return !f.Equal(ab)
			}
			return !f.Equal(ba)
		},
		Univ: a.Dict.Values("a", "b"),
	}
	ok, why, err := a.ParallelCorrect(q, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("Example 4.3 policy should be parallel-correct: %s", why)
	}
	strong, _, err := a.StronglyCorrect(q, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strong {
		t.Errorf("PC0 should fail for Example 4.3")
	}
}

func TestAnalyzerTransfersAndContainment(t *testing.T) {
	a := NewAnalyzer()
	q3, _ := a.ParseQuery("H() :- S(x), R(x, y), T(y)")
	q1, _ := a.ParseQuery("H() :- S(x), R(x, x), T(x)")
	ok, _, err := a.Transfers(q3, q1)
	if err != nil || !ok {
		t.Errorf("Q3 should transfer to Q1: %v %v", ok, err)
	}
	ok, _, err = a.Transfers(q1, q3)
	if err != nil || ok {
		t.Errorf("Q1 should not transfer to Q3")
	}
	cont, err := a.Contained(q1, q3)
	if err != nil || !cont {
		t.Errorf("Q1 ⊆ Q3 expected")
	}
}

func TestAnalyzerStructure(t *testing.T) {
	a := NewAnalyzer()
	tri, _ := a.ParseQuery("H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	s, err := a.Structure(tri)
	if err != nil {
		t.Fatal(err)
	}
	if s.Acyclic || !s.Full || !s.Connected || !s.SelfJoinFree {
		t.Errorf("triangle structure wrong: %+v", s)
	}
	if s.Tau < 1.49 || s.Tau > 1.51 {
		t.Errorf("τ* = %v", s.Tau)
	}
	if s.LoadExponent < 0.66 || s.LoadExponent > 0.67 {
		t.Errorf("load exponent = %v", s.LoadExponent)
	}
	if s.Rho < 1.49 || s.Rho > 1.51 {
		t.Errorf("ρ* = %v", s.Rho)
	}
}

func TestChoosePlanMatrix(t *testing.T) {
	a := NewAnalyzer()
	tri, _ := a.ParseQuery("H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	chain, _ := a.ParseQuery("H(x, z) :- R(x, y), S(y, z)")
	cases := []struct {
		q                *cq.CQ
		oneRound, skewed bool
		want             Algorithm
	}{
		{tri, true, false, AlgoHyperCube},
		{tri, false, false, AlgoGYM},
		{chain, false, false, AlgoYannakakis},
		{chain, true, true, AlgoGrouping},
		{chain, true, false, AlgoHyperCube},
	}
	for _, c := range cases {
		p, err := ChoosePlan(c.q, 16, c.oneRound, c.skewed)
		if err != nil {
			t.Fatal(err)
		}
		if p.Algorithm != c.want {
			t.Errorf("plan(%v, oneRound=%v, skewed=%v) = %s, want %s",
				c.q, c.oneRound, c.skewed, p.Algorithm, c.want)
		}
	}
	neg, _ := a.ParseQuery("H(x) :- R(x), not S(x)")
	if _, err := ChoosePlan(neg, 4, true, false); err == nil {
		t.Errorf("negated query accepted by planner")
	}
}

func TestClassifyQueryHierarchy(t *testing.T) {
	d := rel.NewDict()
	schema := rel.Schema{"E": 2}
	u := []rel.Value{0, 1, 2}

	triQ := cq.MustParse(d, "H(x, y, z) :- E(x, y), E(y, z), E(z, x)")
	got, err := ClassifyQuery(func(i *rel.Instance) *rel.Instance { return cq.Output(triQ, i) }, schema, u)
	if err != nil {
		t.Fatal(err)
	}
	if got != mono.M {
		t.Errorf("triangle class = %s, want M", got)
	}

	openQ := cq.MustParse(d, "H(x, y, z) :- E(x, y), E(y, z), not E(z, x)")
	got, err = ClassifyQuery(func(i *rel.Instance) *rel.Instance { return cq.Output(openQ, i) }, schema, u)
	if err != nil {
		t.Fatal(err)
	}
	if got != mono.Mdistinct {
		t.Errorf("open triangle class = %s, want Mdistinct", got)
	}
	if StrategyFor(got).String() == "" || StrategyFor(mono.None).String() == "" {
		t.Errorf("empty strategy text")
	}
	_ = mono.Query(nil)
}

func TestClassifyProgram(t *testing.T) {
	d := rel.NewDict()
	pos := datalog.MustParse(d, "TC(x, y) :- E(x, y)\nTC(x, y) :- TC(x, z), E(z, y)")
	if datalog.Classify(pos).MonotonicityClass() != mono.M {
		t.Errorf("positive program not in M")
	}
	sp := datalog.MustParse(d, "Open(x, y, z) :- E(x, y), E(y, z), not E(z, x)")
	if datalog.Classify(sp).MonotonicityClass() != mono.Mdistinct {
		t.Errorf("semi-positive program not in Mdistinct")
	}
	sc := datalog.MustParse(d, `
TC(x, y) :- E(x, y)
TC(x, y) :- TC(x, z), TC(z, y)
OUT(x, y) :- ADom(x), ADom(y), not TC(x, y)`)
	if datalog.Classify(sc).MonotonicityClass() != mono.Mdisjoint {
		t.Errorf("semi-connected program not in Mdisjoint")
	}
	out, err := datalog.EvalQuery(sc, workload.PathGraph(2), "OUT")
	if err != nil || out.Len() != 6 {
		t.Errorf("EvalQuery: %d facts, err %v", out.Len(), err)
	}
}

func TestDetectSkew(t *testing.T) {
	inst := workload.JoinSkewed(100, 0.5)
	skew := DetectSkew(inst, 10)
	if len(skew) == 0 {
		t.Errorf("skew not detected")
	}
	free := workload.JoinSkewFree(100)
	if got := DetectSkew(free, 10); len(got) != 0 {
		t.Errorf("false skew: %v", got)
	}
}

func TestAnalyzerMinimize(t *testing.T) {
	a := NewAnalyzer()
	q, _ := a.ParseQuery("H(x) :- R(x, y), R(x, z)")
	core, err := cq.Minimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(core.Body) != 1 {
		t.Errorf("core = %v", core)
	}
}

// ClassifyQuery places a black-box query in the hierarchy by bounded
// model checking over the given schema and universe (exact relative to
// the bound). It returns the strongest class that holds.
func ClassifyQuery(q mono.Query, schema rel.Schema, universe []rel.Value) (mono.Class, error) {
	if rep, err := mono.IsMonotone(q, schema, universe); err != nil {
		return mono.None, err
	} else if rep.Holds {
		return mono.M, nil
	}
	if rep, err := mono.IsDomainDistinctMonotone(q, schema, universe); err != nil {
		return mono.None, err
	} else if rep.Holds {
		return mono.Mdistinct, nil
	}
	if rep, err := mono.IsDomainDisjointMonotone(q, schema, universe); err != nil {
		return mono.None, err
	} else if rep.Holds {
		return mono.Mdisjoint, nil
	}
	return mono.None, nil
}
