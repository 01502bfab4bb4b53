package pc

import (
	"fmt"
	"math/rand"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// coversReference is the CQ-only body Covers had while the union form
// was a second copy: two nested enumerations of minimal valuations, no
// disjunct loop. It is kept as the slow-form oracle the shared search
// is held equal to — verdict and witness.
func coversReference(q, qp *cq.CQ) (bool, *CoverWitness, error) {
	if q.HasNegation() || qp.HasNegation() {
		return false, nil, fmt.Errorf("pc: covers is defined for CQs without negation")
	}
	consts := q.Constants().Union(qp.Constants())
	uPrime := freshUniverse(consts, len(qp.Vars()))

	var w *CoverWitness
	err := cq.EachMinimalValuation(qp, uPrime, func(vp cq.Valuation) bool {
		target := vp.RequiredInstance(qp)
		base := target.ADom().Union(consts)
		uQ := freshUniverse(base, len(q.Vars()))
		covered := false
		innerErr := cq.EachMinimalValuation(q, uQ, func(v cq.Valuation) bool {
			if target.SubsetOf(v.RequiredInstance(q)) {
				covered = true
				return false
			}
			return true
		})
		if innerErr != nil {
			// Propagate through the witness-free failure path.
			w = &CoverWitness{Valuation: vp.Clone(), Facts: vp.RequiredFacts(qp)}
			return false
		}
		if !covered {
			w = &CoverWitness{Valuation: vp.Clone(), Facts: vp.RequiredFacts(qp)}
			return false
		}
		return true
	})
	if err != nil {
		return false, nil, err
	}
	return w == nil, w, nil
}

// holdCoversToReference fails unless Covers and the oracle agree on
// (q, qp): the verdict, and on failure the first uncovered valuation
// and its facts — the witness is part of the EXPERIMENTS.md transcript,
// so enumeration order is behaviour.
func holdCoversToReference(t *testing.T, q, qp *cq.CQ) bool {
	t.Helper()
	got, w, err := Covers(q, qp)
	if err != nil {
		t.Fatalf("Covers(%v, %v): %v", q, qp, err)
	}
	want, wr, err := coversReference(q, qp)
	if err != nil {
		t.Fatalf("coversReference(%v, %v): %v", q, qp, err)
	}
	if got != want {
		t.Fatalf("Covers(%v, %v) = %v, reference says %v", q, qp, got, want)
	}
	if (w == nil) != (wr == nil) {
		t.Fatalf("Covers(%v, %v): witness %v, reference witness %v", q, qp, w, wr)
	}
	if w != nil && (!w.Valuation.Equal(wr.Valuation) || fmt.Sprint(w.Facts) != fmt.Sprint(wr.Facts)) {
		t.Fatalf("Covers(%v, %v): witness %v, reference witness %v", q, qp, w, wr)
	}
	return got
}

func TestCoversMatchesReferenceOnFigure1(t *testing.T) {
	qs := figure1Queries(rel.NewDict())
	for _, q := range qs {
		for _, qp := range qs {
			holdCoversToReference(t, q, qp)
		}
	}
}

// The serving set: queries A–F of mpcbench's serve workloads and
// loadgen's traffic, plus the alpha-renamed E that is serve_reuse's
// cold op — every ordered pair, since a session's anchor can be any of
// them when the next one arrives.
func TestCoversMatchesReferenceOnServingSet(t *testing.T) {
	d := rel.NewDict()
	var qs []*cq.CQ
	for _, src := range []string{
		"A(x, z) :- R(x, y), S(y, z)",
		"B(x) :- R(x, y), S(y, z)",
		"C(z, x) :- S(y, z), R(x, y)",
		"D(x, y) :- R(x, y)",
		"E() :- R(x, y), S(y, z)",
		"F(x, z) :- R(x, y), R(y, z)",
		"E() :- R(x1, y1), S(y1, z1)",
	} {
		qs = append(qs, cq.MustParse(d, src))
	}
	covered := 0
	for _, q := range qs {
		for _, qp := range qs {
			if holdCoversToReference(t, q, qp) {
				covered++
			}
		}
	}
	// A covers B–E and both E's; F covers only itself.
	if covered <= len(qs) || covered == len(qs)*len(qs) {
		t.Fatalf("%d of %d pairs covered: the set no longer has both verdicts", covered, len(qs)*len(qs))
	}
}

func TestCoversMatchesReferenceOnRandomPairs(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var constants, repeated, selfJoin, diseq, boolean, projected, full, covered int
	const pairs = 240
	for n := 0; n < pairs; n++ {
		q, qp := cq.Random(r, cq.SmallJoins), cq.Random(r, cq.SmallJoins)
		for _, c := range []*cq.CQ{q, qp} {
			if err := c.Validate(); err != nil {
				t.Fatalf("generator produced %v: %v", c, err)
			}
			if len(c.Constants()) > 0 {
				constants++
			}
			for _, a := range c.Body {
				if len(a.Args) == 2 && a.Args[0].IsVar() && a.Args[0] == a.Args[1] {
					repeated++
				}
			}
			if !c.SelfJoinFree() {
				selfJoin++
			}
			if c.HasDiseq() {
				diseq++
			}
			switch {
			case c.IsBoolean():
				boolean++
			case c.IsFull():
				full++
			default:
				projected++
			}
		}
		if holdCoversToReference(t, q, qp) {
			covered++
		}
	}
	for name, n := range map[string]int{
		"constants": constants, "repeated variable": repeated, "self-join": selfJoin,
		"inequality": diseq, "Boolean head": boolean, "projected head": projected,
		"full head": full, "covered pairs": covered, "uncovered pairs": pairs - covered,
	} {
		if n == 0 {
			t.Errorf("random pairs exercised no %s", name)
		}
	}
}

// FuzzCoversMatchesReference holds Covers to coversReference, verdict
// and witness, on pairs of query texts parsed against one dict. Inputs
// that do not parse, have negated atoms, read a relation at two arities
// (the reference's instances cannot hold that), or have more than 3
// variables or 3 atoms on either side are skipped: the reference
// enumerates.
func FuzzCoversMatchesReference(f *testing.F) {
	seeds := []string{
		"A(x, z) :- R(x, y), S(y, z)",
		"B(x) :- R(x, y), S(y, z)",
		"C(z, x) :- S(y, z), R(x, y)",
		"D(x, y) :- R(x, y)",
		"E() :- R(x, y), S(y, z)",
		"F(x, z) :- R(x, y), R(y, z)",
		"E() :- R(x1, y1), S(y1, z1)",
		"H() :- S(x), R(x, x), T(x)",
		"H() :- R(x, x), T(x)",
		"H() :- S(x), R(x, y), T(y)",
		"H() :- R(x, y), T(y)",
	}
	for i, src := range seeds {
		next := seeds[(i+1)%len(seeds)]
		f.Add(src, next)
		f.Add(next, src)
	}
	f.Fuzz(func(t *testing.T, src, dst string) {
		d := rel.NewDict()
		q, err := cq.Parse(d, src)
		if err != nil {
			return
		}
		qp, err := cq.Parse(d, dst)
		if err != nil {
			return
		}
		schema := rel.Schema{}
		for _, c := range []*cq.CQ{q, qp} {
			if c.HasNegation() || len(c.Vars()) > 3 || len(c.Body) > 3 {
				return
			}
			for _, a := range c.Body {
				if n, ok := schema[a.Rel]; ok && n != len(a.Args) {
					return
				}
				schema[a.Rel] = len(a.Args)
			}
		}
		holdCoversToReference(t, q, qp)
	})
}

// unionMinimalReference is the brute-force union-minimality test the
// valuation search had before it matched atoms: every valuation W of
// every disjunct over adom(V(body_q)), inequality-filtered, dominates V
// when it derives V's head fact from a strict subset of V's facts.
func unionMinimalReference(u *cq.UCQ, q *cq.CQ, v cq.Valuation) bool {
	required := v.RequiredInstance(q)
	head := v.Derives(q)
	universe := required.ADom().Sorted()
	for _, qj := range u.Disjuncts {
		dominated := false
		cq.AllValuations(qj.Vars(), universe, func(w cq.Valuation) bool {
			if w.SatisfiesDiseq(qj) && w.Derives(qj).Equal(head) {
				wReq := w.RequiredInstance(qj)
				dominated = wReq.SubsetOf(required) && wReq.Len() < required.Len()
			}
			return !dominated
		})
		if dominated {
			return false
		}
	}
	return true
}

// coversUCQReference is covers in its enumerating form: every
// inequality-satisfying, union-minimal V′ of each target disjunct over
// the whole fresh universe, in enumeration order, and for each every V
// of each source disjunct over its universe, minimality by
// unionMinimalReference. It returns the first uncovered V′, or nil.
func coversUCQReference(u, up *cq.UCQ) *CoverWitness {
	consts := make(rel.ValueSet)
	for _, side := range []*cq.UCQ{u, up} {
		for _, q := range side.Disjuncts {
			consts.AddAll(q.Constants())
		}
	}
	var w *CoverWitness
	for _, qp := range up.Disjuncts {
		cq.AllValuations(qp.Vars(), freshUniverse(consts, len(qp.Vars())), func(vp cq.Valuation) bool {
			if !vp.SatisfiesDiseq(qp) || !unionMinimalReference(up, qp, vp) {
				return true
			}
			target := vp.RequiredInstance(qp)
			base := target.ADom().Union(consts)
			for _, q := range u.Disjuncts {
				covered := false
				cq.AllValuations(q.Vars(), freshUniverse(base, len(q.Vars())), func(v cq.Valuation) bool {
					covered = v.SatisfiesDiseq(q) && target.SubsetOf(v.RequiredInstance(q)) && unionMinimalReference(u, q, v)
					return !covered
				})
				if covered {
					return true
				}
			}
			w = &CoverWitness{Valuation: vp.Clone(), Facts: vp.RequiredFacts(qp)}
			return false
		})
		if w != nil {
			break
		}
	}
	return w
}

// Seeded random two-disjunct unions: (*UCQ).IsMinimal on every
// inequality-satisfying valuation over {0, 1, 2, 7} of each disjunct,
// the minimal-only EachValuation stream, and CoversUCQ's verdict and
// witness on consecutive unions, all against the enumerating forms. A
// matching dominance search must find a W of the other disjunct, with
// that disjunct's own head and inequalities, so the sample must contain
// valuations only the other disjunct dominates.
func TestUnionSearchMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	const unions = 128
	var us []*cq.UCQ
	var selfJoin, constants, diseq, cross, minimal, covered int
	for len(us) < unions {
		q1, q2 := cq.Random(r, cq.SmallJoins), cq.Random(r, cq.SmallJoins)
		if len(q1.Head.Args) != len(q2.Head.Args) {
			continue
		}
		u := &cq.UCQ{Disjuncts: []*cq.CQ{q1, q2}}
		if err := u.Validate(); err != nil {
			t.Fatalf("generator produced %v ∪ %v: %v", q1, q2, err)
		}
		us = append(us, u)
		for _, q := range u.Disjuncts {
			if !q.SelfJoinFree() {
				selfJoin++
			}
			if len(q.Constants()) > 0 {
				constants++
			}
			if q.HasDiseq() {
				diseq++
			}
		}
	}
	universe := []rel.Value{0, 1, 2, 7}
	for _, u := range us {
		for _, q := range u.Disjuncts {
			alone := &cq.UCQ{Disjuncts: []*cq.CQ{q}}
			var want []cq.Valuation
			cq.AllValuations(q.Vars(), universe, func(v cq.Valuation) bool {
				if !v.SatisfiesDiseq(q) {
					return true
				}
				ref := unionMinimalReference(u, q, v)
				if got := u.IsMinimal(q, v); got != ref {
					t.Fatalf("(%v ∪ %v).IsMinimal(%v, %v) = %v, reference says %v", u.Disjuncts[0], u.Disjuncts[1], q, v, got, ref)
				}
				if ref {
					want = append(want, v.Clone())
					minimal++
				} else if unionMinimalReference(alone, q, v) {
					cross++
				}
				return true
			})
			k := 0
			u.EachValuation(q, universe, true, func(v cq.Valuation) bool {
				if k >= len(want) || !v.Equal(want[k]) {
					t.Fatalf("EachValuation(%v) streamed %v at position %d; the reference's union-minimal valuations are %v", q, v, k, want)
				}
				k++
				return true
			})
			if k != len(want) {
				t.Fatalf("EachValuation(%v) streamed %d valuations, want %d", q, k, len(want))
			}
		}
	}
	for k, u := range us {
		up := us[(k+1)%len(us)]
		ok, w, err := CoversUCQ(u, up)
		if err != nil {
			t.Fatal(err)
		}
		wr := coversUCQReference(u, up)
		if ok != (wr == nil) || (w == nil) != (wr == nil) {
			t.Fatalf("CoversUCQ(%v, %v) = %v (%v), reference witness %v", u.Disjuncts, up.Disjuncts, ok, w, wr)
		}
		if w != nil && (!w.Valuation.Equal(wr.Valuation) || fmt.Sprint(w.Facts) != fmt.Sprint(wr.Facts)) {
			t.Fatalf("CoversUCQ(%v, %v): witness %v, reference witness %v", u.Disjuncts, up.Disjuncts, w, wr)
		}
		if ok {
			covered++
		}
	}
	for name, n := range map[string]int{
		"self-join": selfJoin, "constants": constants, "inequality": diseq,
		"cross-disjunct domination": cross, "union-minimal valuation": minimal,
		"covered pair": covered, "uncovered pair": unions - covered,
	} {
		if n == 0 {
			t.Errorf("random unions exercised no %s", name)
		}
	}
}

// What a union decides that its disjuncts do not: in
// H(x) :- R(x, y), S(y) ∪ H(x) :- R(x, y) every valuation of the first
// disjunct is minimal for that disjunct alone, yet the second derives
// the same head fact from the R-fact only, so none is union-minimal.
// The union is parallel-correct wherever its second disjunct is, and is
// covered by it, although the first disjunct by itself is neither.
func TestUnionMinimalityCrossesDisjuncts(t *testing.T) {
	d := rel.NewDict()
	u := cq.MustParseUCQ(d, "H(x) :- R(x, y), S(y)\nH(x) :- R(x, y)")
	narrow, wide := u.Disjuncts[0], u.Disjuncts[1]
	universe := d.Values("a", "b")

	// R-facts on node 0, S-facts on node 1: no R-fact ever meets an
	// S-fact.
	split := &policy.Func{Nodes: 2, Resp: func(κ policy.Node, f rel.Fact) bool {
		return (f.Rel == "R") == (κ == 0)
	}}
	if ok, _, err := Saturates(narrow, split, universe); err != nil || ok {
		t.Fatalf("Saturates(%v) = %v, %v; its valuations need an R- and an S-fact together", narrow, ok, err)
	}
	if ok, _, err := Saturates(wide, split, universe); err != nil || !ok {
		t.Fatalf("Saturates(%v) = %v, %v; want true", wide, ok, err)
	}
	if ok, w, err := SaturatesUCQ(u, split, universe); err != nil || !ok {
		t.Fatalf("SaturatesUCQ = %v (%v), %v; the first disjunct's valuations are dominated through the second", ok, w, err)
	}
	// The union really is correct under the split policy.
	i := rel.MustInstance(d, "R(a,b)", "S(b)", "R(b,a)")
	if !cq.OutputUCQ(u, i).Equal(DistributedEvalUCQ(u, split, i)) {
		t.Fatalf("union not parallel-correct on %v under the split policy", i.StringWith(d))
	}

	source := &cq.UCQ{Disjuncts: []*cq.CQ{wide}}
	if ok, _, err := Covers(wide, narrow); err != nil || ok {
		t.Fatalf("Covers(%v, %v) = %v, %v; no R-only body contains an S-fact", wide, narrow, ok, err)
	}
	if ok, w, err := CoversUCQ(source, u); err != nil || !ok {
		t.Fatalf("CoversUCQ = %v (%v), %v; only the second disjunct has union-minimal valuations", ok, w, err)
	}
}

// BenchmarkCoversServing prices the one Covers call on mpcbench's
// measured path: serve_reuse's cold op asks whether the anchor A covers
// a never-seen alpha variant of E.
func BenchmarkCoversServing(b *testing.B) {
	d := rel.NewDict()
	anchor := cq.MustParse(d, "A(x, z) :- R(x, y), S(y, z)")
	cold := cq.MustParse(d, "E() :- R(x1, y1), S(y1, z1)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, _, err := Covers(anchor, cold); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

// BenchmarkCoversAtGate prices one covered pair at exactly the serving
// gate's default size on each side, 6 variables and 4 atoms: a
// projected chain and a Boolean alpha-variant of its body.
func BenchmarkCoversAtGate(b *testing.B) {
	d := rel.NewDict()
	anchor := cq.MustParse(d, "A(x, v) :- R(x, y), S(y, z), T(z, w, u), U(u, v)")
	cold := cq.MustParse(d, "A() :- R(x1, y1), S(y1, z1), T(z1, w1, u1), U(u1, v1)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ok, _, err := Covers(anchor, cold); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}
