package pc

import (
	"fmt"
	"math/rand"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// Example 4.1 of the paper. Note: the paper prints the result as
// {H(a,b)} ∪ {H(a,c)}, but H(a,b) is not derivable from Ie at all —
// the only two satisfying valuation classes give H(a,a) (via path
// a→b→a and S(a,a)) and H(a,c) (via path a→b→c and S(c,a)). We encode
// the mathematically correct result {H(a,a), H(a,c)}, which moreover
// coincides with Qe(Ie), so Qe IS parallel-correct on Ie under P1;
// under P2 the distributed result is empty, hence not correct.
func TestExample41(t *testing.T) {
	d := rel.NewDict()
	qe := cq.MustParse(d, "H(x1, x3) :- R(x1, x2), R(x2, x3), S(x3, x1)")
	ie := rel.MustInstance(d, "R(a,b)", "R(b,a)", "R(b,c)", "S(a,a)", "S(c,a)")

	a := d.Value("a")
	// P1: all R-facts to both nodes; S(d1,d2) to node 0 if d1==d2 else node 1.
	p1 := &policy.Func{
		Nodes: 2,
		Resp: func(κ policy.Node, f rel.Fact) bool {
			if f.Rel == "R" {
				return true
			}
			if f.Rel == "S" {
				if f.Tuple[0] == f.Tuple[1] {
					return κ == 0
				}
				return κ == 1
			}
			return false
		},
		Univ: d.Values("a", "b", "c"),
	}

	loc0 := policy.LocalInstance(p1, ie, 0)
	wantLoc0 := rel.MustInstance(d, "R(a,b)", "R(b,a)", "R(b,c)", "S(a,a)")
	if !loc0.Equal(wantLoc0) {
		t.Errorf("loc-inst(κ1) = %v", loc0.StringWith(d))
	}
	loc1 := policy.LocalInstance(p1, ie, 1)
	wantLoc1 := rel.MustInstance(d, "R(a,b)", "R(b,a)", "R(b,c)", "S(c,a)")
	if !loc1.Equal(wantLoc1) {
		t.Errorf("loc-inst(κ2) = %v", loc1.StringWith(d))
	}

	got := DistributedEval(qe, p1, ie)
	want := rel.MustInstance(d, "H(a,a)", "H(a,c)")
	if !got.Equal(want) {
		t.Errorf("[Qe,P1](Ie) = %v, want %v", got.StringWith(d), want.StringWith(d))
	}
	if full := cq.Output(qe, ie); !full.Equal(want) {
		t.Errorf("Qe(Ie) = %v, want %v", full.StringWith(d), want.StringWith(d))
	}
	_ = a

	// P2: all R on node 0, all S on node 1 → empty result.
	p2 := &policy.Func{
		Nodes: 2,
		Resp: func(κ policy.Node, f rel.Fact) bool {
			if f.Rel == "R" {
				return κ == 0
			}
			return κ == 1
		},
		Univ: d.Values("a", "b", "c"),
	}
	got2 := DistributedEvalUCQ(&cq.UCQ{Disjuncts: []*cq.CQ{qe}}, p2, ie)
	if got2.Len() != 0 {
		t.Errorf("[Qe,P2](Ie) = %v, want empty", got2.StringWith(d))
	}
	if !ParallelCorrectOn(qe, p1, ie) {
		t.Errorf("Qe should be parallel-correct on Ie under P1 ([Qe,P1](Ie) = Qe(Ie))")
	}
	if ParallelCorrectOn(qe, p2, ie) {
		t.Errorf("Qe should NOT be parallel-correct on Ie under P2")
	}
}

// Example 4.3: PC0 fails for the policy but Q is parallel-correct
// (PC1 holds).
func TestExample43(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, z) :- R(x, y), R(y, z), R(x, x)")
	ab := rel.MustFact(d, "R(a,b)")
	ba := rel.MustFact(d, "R(b,a)")
	p := &policy.Func{
		Nodes: 2,
		Resp: func(κ policy.Node, f rel.Fact) bool {
			switch κ {
			case 0:
				return !f.Equal(ab)
			case 1:
				return !f.Equal(ba)
			}
			return false
		},
		Univ: d.Values("a", "b"),
	}

	strong, w0, err := StronglySaturates(q, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strong {
		t.Errorf("(PC0) holds but Example 4.3 shows the witness valuation {x↦a,y↦b,z↦a}")
	}
	if w0 == nil {
		t.Fatalf("no PC0 witness returned")
	}

	sat, w1, err := Saturates(q, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sat {
		t.Errorf("(PC1) fails (witness %v) but Example 4.3 proves parallel-correctness", w1)
	}

	// Cross-check with brute-force PCI over all instances over {a,b}.
	schema, _ := q.Schema()
	err = cq.EachInstance(schema, d.Values("a", "b"), func(i *rel.Instance) bool {
		if !ParallelCorrectOn(q, p, i) {
			t.Errorf("not parallel-correct on %v", i.StringWith(d))
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Proposition 4.6: (PC1) ⇔ parallel-correctness. We model-check both
// sides over random policies on a small universe.
func TestProposition46Random(t *testing.T) {
	d := rel.NewDict()
	queries := []*cq.CQ{
		cq.MustParse(d, "H(x, z) :- R(x, y), R(y, z)"),
		cq.MustParse(d, "H(x, z) :- R(x, y), R(y, z), R(x, x)"),
		cq.MustParse(d, "H(x) :- R(x, y), S(y, x)"),
		cq.MustParse(d, "H(x, y) :- R(x, y), x != y"),
	}
	universe := []rel.Value{0, 1}
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		q := queries[trial%len(queries)]
		schema, err := q.Schema()
		if err != nil {
			t.Fatal(err)
		}
		p := randomFinitePolicy(r, schema, universe, 2)

		sat, _, err := Saturates(q, p, universe)
		if err != nil {
			t.Fatal(err)
		}
		correct := true
		err = cq.EachInstance(schema, universe, func(i *rel.Instance) bool {
			if !ParallelCorrectOn(q, p, i) {
				correct = false
				return false
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if sat != correct {
			t.Fatalf("trial %d query %v: (PC1)=%v but model-checked correctness=%v", trial, q, sat, correct)
		}
	}
}

// PC0 implies PC1 (strong saturation is sufficient).
func TestPC0ImpliesPC1(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, z) :- R(x, y), R(y, z), R(x, x)")
	universe := []rel.Value{0, 1}
	r := rand.New(rand.NewSource(9))
	schema, _ := q.Schema()
	for trial := 0; trial < 60; trial++ {
		p := randomFinitePolicy(r, schema, universe, 2)
		strong, _, err := StronglySaturates(q, p, universe)
		if err != nil {
			t.Fatal(err)
		}
		if !strong {
			continue
		}
		sat, w, err := Saturates(q, p, universe)
		if err != nil {
			t.Fatal(err)
		}
		if !sat {
			t.Fatalf("PC0 holds but PC1 fails: %v", w)
		}
	}
}

func randomFinitePolicy(r *rand.Rand, schema rel.Schema, universe []rel.Value, nodes int) *policy.Finite {
	p := policy.NewFinite(nodes, universe)
	for _, f := range schema.AllFacts(universe) {
		for κ := 0; κ < nodes; κ++ {
			if r.Intn(2) == 0 {
				p.Assign(policy.Node(κ), f)
			}
		}
	}
	return p
}

func TestSaturatesRejectsNegation(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x) :- R(x), not S(x)")
	p := policy.NewFinite(1, d.Values("a"))
	if _, _, err := Saturates(q, p, nil); err == nil {
		t.Errorf("negated query accepted by Saturates")
	}
	if _, _, err := StronglySaturates(q, p, nil); err == nil {
		t.Errorf("negated query accepted by StronglySaturates")
	}
}

func TestUniverseRequired(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x) :- R(x)")
	p := &policy.Replicate{Nodes: 2} // no universe
	if _, _, err := Saturates(q, p, nil); err == nil {
		t.Errorf("missing universe accepted")
	}
	if ok, _, err := Saturates(q, p, d.Values("a")); err != nil || !ok {
		t.Errorf("replication should saturate everything: %v %v", ok, err)
	}
}

func TestSaturatesUCQ(t *testing.T) {
	d := rel.NewDict()
	// Union where the second disjunct rescues the first: a valuation
	// requiring {R(a,b), R(b,a)} is not union-minimal when the
	// one-fact disjunct derives the same head.
	u := cq.MustParseUCQ(d, "H() :- R(x, y), R(y, x)\nH() :- R(x, x)")
	a, b := d.Value("a"), d.Value("b")
	universe := []rel.Value{a, b}

	// Policy that separates R(a,b) from R(b,a) but keeps each diagonal
	// fact somewhere.
	p := policy.NewFinite(2, universe)
	p.Assign(0, rel.NewFact("R", a, b))
	p.Assign(1, rel.NewFact("R", b, a))
	p.Assign(0, rel.NewFact("R", a, a))
	p.Assign(1, rel.NewFact("R", b, b))

	ok, w, err := SaturatesUCQ(u, p, universe)
	if err != nil {
		t.Fatal(err)
	}
	// The valuation x↦a,y↦b for the first disjunct requires
	// {R(a,b), R(b,a)} which never meet, and no disjunct derives H()
	// from a strict subset of those facts — H() via R(x,x) requires
	// R(a,a) which is NOT a subset fact. So it IS union-minimal and
	// saturation fails.
	if ok {
		t.Errorf("expected saturation failure, union-minimal valuation exists")
	} else if w == nil {
		t.Errorf("no witness")
	}

	// Single-disjunct union behaves exactly like the CQ.
	u2 := cq.MustParseUCQ(d, "H(x, z) :- R(x, y), R(y, z), R(x, x)")
	q2 := u2.Disjuncts[0]
	r := rand.New(rand.NewSource(17))
	schema, _ := q2.Schema()
	for trial := 0; trial < 20; trial++ {
		pr := randomFinitePolicy(r, schema, universe, 2)
		okU, _, err := SaturatesUCQ(u2, pr, universe)
		if err != nil {
			t.Fatal(err)
		}
		okQ, _, err := Saturates(q2, pr, universe)
		if err != nil {
			t.Fatal(err)
		}
		if okU != okQ {
			t.Fatalf("UCQ and CQ saturation disagree on singleton union")
		}
	}
}

// Hypercube-style distributions strongly saturate their query
// (noted after Definition 4.7). Here: a grid policy for the triangle
// query built by hand over a tiny universe.
func TestHypercubeStronglySaturates(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	universe := []rel.Value{0, 1, 2, 3}
	// 2×2×2 grid: node id = 4*hx + 2*hy + hz with h(v) = v mod 2.
	h := func(v rel.Value) int { return int(v) % 2 }
	p := &policy.Func{
		Nodes: 8,
		Resp: func(κ policy.Node, f rel.Fact) bool {
			x, y, z := int(κ)>>2&1, int(κ)>>1&1, int(κ)&1
			switch f.Rel {
			case "R":
				return h(f.Tuple[0]) == x && h(f.Tuple[1]) == y
			case "S":
				return h(f.Tuple[0]) == y && h(f.Tuple[1]) == z
			case "T":
				return h(f.Tuple[0]) == z && h(f.Tuple[1]) == x
			}
			return false
		},
		Univ: universe,
	}
	strong, w, err := StronglySaturates(q, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strong {
		t.Errorf("hypercube distribution fails PC0: %v", w)
	}
	sat, _, err := Saturates(q, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sat {
		t.Errorf("hypercube distribution fails PC1")
	}
}

// SaturatesUCQ decides parallel-correctness for a union of CQs. The
// suitable notion of minimal valuation for unions ([Geck et al.]):
// a valuation V for disjunct Qi is union-minimal if no valuation W for
// any disjunct Qj derives the same head fact from a strict subset of
// V's required facts (cq's (*UCQ).IsMinimal).
func SaturatesUCQ(u *cq.UCQ, p policy.Policy, universe []rel.Value) (bool, *Witness, error) {
	if u.HasNegation() {
		return false, nil, fmt.Errorf("pc: use bounded procedures for UCQ¬")
	}
	return saturates(u, p, universe, true)
}
