package cq

import (
	"fmt"
	"math/rand"
	"testing"

	"mpclogic/internal/rel"
)

// Example 4.5 of the paper: for Q: H(x,z) :- R(x,y), R(y,z), R(x,x),
// V1 = {x↦a, y↦b, z↦a} is NOT minimal while V2 = {x↦a, y↦a, z↦a} is.
func TestExample45Minimality(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x, z) :- R(x, y), R(y, z), R(x, x)")
	a, b := d.Value("a"), d.Value("b")

	v1 := Valuation{"x": a, "y": b, "z": a}
	min1, err := IsMinimal(q, v1)
	if err != nil {
		t.Fatal(err)
	}
	if min1 {
		t.Errorf("V1 reported minimal; Example 4.5 says it is not")
	}

	v2 := Valuation{"x": a, "y": a, "z": a}
	min2, err := IsMinimal(q, v2)
	if err != nil {
		t.Fatal(err)
	}
	if !min2 {
		t.Errorf("V2 reported non-minimal; Example 4.5 says it is")
	}
}

func TestMinimalValuationsEnumeration(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x, z) :- R(x, y), R(y, z), R(x, x)")
	u := d.Values("a", "b")
	mins, err := MinimalValuations(q, u)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range mins {
		ok, err := IsMinimal(q, v)
		if err != nil || !ok {
			t.Errorf("non-minimal valuation returned: %v (%v)", v, err)
		}
	}
	// {x↦a,y↦b,z↦a} must not be among them.
	bad := Valuation{"x": d.Value("a"), "y": d.Value("b"), "z": d.Value("a")}
	for _, v := range mins {
		if v.Equal(bad) {
			t.Errorf("known non-minimal valuation enumerated")
		}
	}
}

func TestMinimalRejectsNegation(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x) :- R(x), not S(x)")
	if _, err := MinimalValuations(q, d.Values("a")); err == nil {
		t.Errorf("CQ¬ accepted by MinimalValuations")
	}
	if _, err := IsMinimal(q, Valuation{"x": d.Value("a")}); err == nil {
		t.Errorf("CQ¬ accepted by IsMinimal")
	}
}

func TestMinimalWithDiseq(t *testing.T) {
	d := rel.NewDict()
	// With x != y, collapsing x and y is not allowed, so the
	// two-value valuation IS minimal here.
	q := MustParse(d, "H(x) :- R(x, y), R(y, x), x != y")
	a, b := d.Value("a"), d.Value("b")
	min, err := IsMinimal(q, Valuation{"x": a, "y": b})
	if err != nil {
		t.Fatal(err)
	}
	if !min {
		t.Errorf("diseq-protected valuation reported non-minimal")
	}
	// A valuation violating the inequality is rejected outright.
	if _, err := IsMinimal(q, Valuation{"x": a, "y": a}); err == nil {
		t.Errorf("diseq-violating valuation accepted")
	}
}

// Property: every satisfying valuation derives a fact that some minimal
// valuation with the same head also derives using a subset of its
// facts. (This is the engine behind Proposition 4.6.)
func TestPropMinimalDominates(t *testing.T) {
	d := rel.NewDict()
	queries := []*CQ{
		MustParse(d, "H(x, z) :- R(x, y), R(y, z)"),
		MustParse(d, "H(x, z) :- R(x, y), R(y, z), R(x, x)"),
		MustParse(d, "H(x) :- R(x, y), S(y, x)"),
	}
	u := []rel.Value{0, 1, 2}
	for _, q := range queries {
		AllValuations(q.Vars(), u, func(v Valuation) bool {
			req := v.RequiredInstance(q)
			head := v.Derives(q)
			found := false
			err := EachMinimalValuation(q, u, func(m Valuation) bool {
				if m.Derives(q).Equal(head) && m.RequiredInstance(q).SubsetOf(req) {
					found = true
					return false
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				t.Fatalf("query %v: valuation %v not dominated by any minimal valuation", q, v)
			}
			return true
		})
	}
}

// Property: a minimal valuation's required facts, evaluated as an
// instance, derive the head (sanity of the definition).
func TestPropMinimalValuationsDerive(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x, z) :- R(x, y), R(y, z), R(x, x)")
	u := []rel.Value{0, 1}
	mins, err := MinimalValuations(q, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(mins) == 0 {
		t.Fatal("no minimal valuations found")
	}
	for _, v := range mins {
		i := v.RequiredInstance(q)
		if !Evaluate(q, i).Contains(v.Derives(q).Tuple) {
			t.Errorf("minimal valuation %v does not derive its head from its required facts", v)
		}
	}
}

// Randomized cross-check of IsMinimal against a brute-force definition.
func TestPropIsMinimalBruteForce(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x) :- R(x, y), S(y, z)")
	vars := q.Vars()
	u := []rel.Value{0, 1, 2}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		v := Valuation{}
		for _, name := range vars {
			v[name] = u[r.Intn(len(u))]
		}
		got, err := IsMinimal(q, v)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force over the same universe (adom(V(body)) ⊆ u here).
		want := true
		AllValuations(vars, u, func(w Valuation) bool {
			if w.Derives(q).Equal(v.Derives(q)) {
				wi, vi := w.RequiredInstance(q), v.RequiredInstance(q)
				if wi.SubsetOf(vi) && wi.Len() < vi.Len() {
					want = false
					return false
				}
			}
			return true
		})
		if got != want {
			t.Fatalf("IsMinimal(%v) = %v, brute force says %v", v, got, want)
		}
	}
}

func TestMinimizeCore(t *testing.T) {
	d := rel.NewDict()
	cases := []struct {
		src  string
		want int // atoms in the core
	}{
		{"H(x) :- R(x, y), R(x, z)", 1},                // z-atom redundant
		{"H(x) :- R(x, y), R(y, z), R(x, x)", 1},       // collapses onto R(x,x)
		{"H(x, y) :- R(x, y)", 1},                      // already minimal
		{"H(x, y, z) :- R(x, y), S(y, z), T(z, x)", 3}, // triangle is a core
		{"H(x) :- R(x, y), S(y, y), R(x, w), S(w, w)", 2},
	}
	for _, c := range cases {
		q := MustParse(d, c.src)
		core, err := Minimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(core.Body) != c.want {
			t.Errorf("core of %q has %d atoms, want %d: %v", c.src, len(core.Body), c.want, core)
		}
		// The core must be equivalent to the original.
		eq, err := Equivalent(q, core)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("core of %q not equivalent", c.src)
		}
	}
	if _, err := Minimize(MustParse(d, "H(x) :- R(x), not S(x)")); err == nil {
		t.Errorf("negated query accepted by Minimize")
	}
}

// Minimization preserves minimal valuations' derived facts: the core
// derives exactly the same results on every bounded instance.
func TestMinimizePreservesSemantics(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x, z) :- R(x, y), R(y, z), R(x, x), R(x, w)")
	core, err := Minimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(core.Body) >= len(q.Body) {
		t.Fatalf("nothing minimized: %v", core)
	}
	schema, _ := q.Schema()
	if err := EachInstance(schema, []rel.Value{0, 1}, func(i *rel.Instance) bool {
		if !Evaluate(q, i).Equal(Evaluate(core, i)) {
			t.Fatalf("core differs on %v", i)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// IsMinimal reports whether the valuation v (total on vars(Q), and
// satisfying the inequalities of Q) is minimal for Q.
func IsMinimal(q *CQ, v Valuation) (bool, error) {
	if q.HasNegation() {
		return false, fmt.Errorf("cq: minimal valuations undefined for CQ¬")
	}
	if !v.SatisfiesDiseq(q) {
		return false, fmt.Errorf("cq: valuation violates inequalities of the query")
	}
	return single(q).IsMinimal(q, v), nil
}
