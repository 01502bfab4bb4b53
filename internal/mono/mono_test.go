package mono

import (
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/rel"
)

var eSchema = rel.Schema{"E": 2}

func u(n int) []rel.Value {
	out := make([]rel.Value, n)
	for i := range out {
		out[i] = rel.Value(i)
	}
	return out
}

// cqQuery wraps a CQ as a mono.Query.
func cqQuery(q *cq.CQ) Query {
	return func(i *rel.Instance) *rel.Instance { return cq.Output(q, i) }
}

func triangleQ(d *rel.Dict) Query {
	return cqQuery(cq.MustParse(d,
		"H(x, y, z) :- E(x, y), E(y, z), E(z, x), x != y, y != z, z != x"))
}

func openTriangleQ(d *rel.Dict) Query {
	return cqQuery(cq.MustParse(d, "H(x, y, z) :- E(x, y), E(y, z), not E(z, x)"))
}

// notTCQ is Q¬TC: all pairs over adom(I) with no directed path.
func notTCQ(i *rel.Instance) *rel.Instance {
	// Transitive closure by repeated squaring over the adjacency set.
	reach := map[[2]rel.Value]bool{}
	e := i.Relation("E")
	adom := i.ADom().Sorted()
	if e != nil {
		e.Each(func(t rel.Tuple) bool {
			reach[[2]rel.Value{t[0], t[1]}] = true
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for ab := range reach {
			for _, c := range adom {
				if reach[[2]rel.Value{ab[1], c}] && !reach[[2]rel.Value{ab[0], c}] {
					reach[[2]rel.Value{ab[0], c}] = true
					changed = true
				}
			}
		}
	}
	out := rel.NewInstance()
	for _, a := range adom {
		for _, b := range adom {
			if !reach[[2]rel.Value{a, b}] {
				out.Add(rel.NewFact("NTC", a, b))
			}
		}
	}
	return out
}

// qNT returns the edge relation when the graph has no 3-node triangle
// and the empty set otherwise (Example 5.10).
func qNT(i *rel.Instance) *rel.Instance {
	e := i.Relation("E")
	out := rel.NewInstance()
	if e == nil {
		return out
	}
	hasTri := false
	e.Each(func(t1 rel.Tuple) bool {
		e.Each(func(t2 rel.Tuple) bool {
			if t1[1] != t2[0] {
				return true
			}
			if e.Contains(rel.Tuple{t2[1], t1[0]}) &&
				t1[0] != t1[1] && t2[0] != t2[1] && t2[1] != t1[0] {
				hasTri = true
				return false
			}
			return true
		})
		return !hasTri
	})
	if hasTri {
		return out
	}
	e.Each(func(t rel.Tuple) bool {
		out.Add(rel.Fact{Rel: "E", Tuple: t})
		return true
	})
	return out
}

// Figure 2 separations, machine-verified.

func TestTriangleInM(t *testing.T) {
	d := rel.NewDict()
	rep, err := IsMonotone(triangleQ(d), eSchema, u(3))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Errorf("triangle query not monotone: %v", rep)
	}
}

func TestOpenTriangleInMdistinctNotM(t *testing.T) {
	d := rel.NewDict()
	q := openTriangleQ(d)
	repM, err := IsMonotone(q, eSchema, u(3))
	if err != nil {
		t.Fatal(err)
	}
	if repM.Holds {
		t.Errorf("open triangle reported monotone; it is not")
	}
	repD, err := IsDomainDistinctMonotone(q, eSchema, u(3))
	if err != nil {
		t.Fatal(err)
	}
	if !repD.Holds {
		t.Errorf("open triangle not in Mdistinct (Example 5.6 says it is): %v", repD)
	}
}

func TestNotTCInMdisjointNotMdistinct(t *testing.T) {
	repD, err := IsDomainDistinctMonotone(notTCQ, eSchema, u(3))
	if err != nil {
		t.Fatal(err)
	}
	if repD.Holds {
		t.Errorf("¬TC reported in Mdistinct; Example 5.6 refutes this")
	}
	repJ, err := IsDomainDisjointMonotone(notTCQ, eSchema, u(3))
	if err != nil {
		t.Fatal(err)
	}
	if !repJ.Holds {
		t.Errorf("¬TC not in Mdisjoint (Example 5.10 says it is): %v", repJ)
	}
}

func TestQNTNotInMdisjoint(t *testing.T) {
	rep, err := IsDomainDisjointMonotone(qNT, eSchema, u(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Holds {
		t.Errorf("QNT reported in Mdisjoint; Example 5.10 refutes this")
	}
	// The witness must actually violate disjoint-monotonicity.
	if rep.I == nil || rep.J == nil {
		t.Fatalf("no witness")
	}
	if rep.I.ADom().Intersects(rep.J.ADom()) {
		t.Errorf("witness J not domain-disjoint from I")
	}
	if qNT(rep.I).SubsetOf(qNT(rep.I.Union(rep.J))) {
		t.Errorf("witness does not violate")
	}
}

// The hierarchy is a chain: M ⊆ Mdistinct ⊆ Mdisjoint on a portfolio
// of queries.
func TestHierarchyChain(t *testing.T) {
	d := rel.NewDict()
	queries := []Query{
		triangleQ(d),
		openTriangleQ(d),
		notTCQ,
		qNT,
		cqQuery(cq.MustParse(d, "H(x) :- E(x, x)")),
		cqQuery(cq.MustParse(d, "H(x, y) :- E(x, y), not E(y, x)")),
	}
	for k, q := range queries {
		m, err := IsMonotone(q, eSchema, u(3))
		if err != nil {
			t.Fatal(err)
		}
		dd, err := IsDomainDistinctMonotone(q, eSchema, u(3))
		if err != nil {
			t.Fatal(err)
		}
		dj, err := IsDomainDisjointMonotone(q, eSchema, u(3))
		if err != nil {
			t.Fatal(err)
		}
		if m.Holds && !dd.Holds {
			t.Errorf("query %d: in M but not Mdistinct", k)
		}
		if dd.Holds && !dj.Holds {
			t.Errorf("query %d: in Mdistinct but not Mdisjoint", k)
		}
	}
}

// Lemma 5.7: Mdistinct queries are monotone under induced
// subinstances.
func TestLemma57(t *testing.T) {
	d := rel.NewDict()
	ok, bad := CheckLemma57(openTriangleQ(d), eSchema, u(3))
	if !ok {
		t.Errorf("Lemma 5.7 fails for open triangle on %v", bad)
	}
	ok, _ = CheckLemma57(triangleQ(d), eSchema, u(3))
	if !ok {
		t.Errorf("Lemma 5.7 fails for triangle")
	}
}

// Lemma 5.11: Mdisjoint queries are monotone w.r.t. components.
func TestLemma511(t *testing.T) {
	ok, bad := CheckLemma511(notTCQ, eSchema, u(3))
	if !ok {
		t.Errorf("Lemma 5.11 fails for ¬TC on %v", bad)
	}
	// QNT is not in Mdisjoint and indeed violates component
	// monotonicity.
	ok, _ = CheckLemma511(qNT, eSchema, u(4))
	if ok {
		t.Errorf("Lemma 5.11 unexpectedly holds for QNT")
	}
}

// Connected-program property: TC distributes over components; ¬TC does
// not (its output relates values across components).
func TestDistributesOverComponents(t *testing.T) {
	tc := func(i *rel.Instance) *rel.Instance {
		// complement-of-complement: reuse notTCQ internals by direct
		// closure computation.
		out := rel.NewInstance()
		ntc := notTCQ(i)
		adom := i.ADom().Sorted()
		for _, a := range adom {
			for _, b := range adom {
				f := rel.NewFact("NTC", a, b)
				if !ntc.Contains(f) {
					out.Add(rel.NewFact("TC", a, b))
				}
			}
		}
		return out
	}
	ok, bad := DistributesOverComponents(tc, eSchema, u(3))
	if !ok {
		t.Errorf("TC does not distribute over components: %v", bad)
	}
	ok, _ = DistributesOverComponents(notTCQ, eSchema, u(3))
	if ok {
		t.Errorf("¬TC distributes over components, but its output spans components")
	}
}

func TestSpaceGuard(t *testing.T) {
	if _, err := IsMonotone(notTCQ, rel.Schema{"E": 2}, u(5)); err == nil {
		t.Errorf("oversized space accepted")
	}
}

// CheckLemma57 verifies Q(I|C) ⊆ Q(I) for every instance I over the
// universe and every C ⊆ adom(I). Queries in Mdistinct must pass.
func CheckLemma57(q Query, schema rel.Schema, universe []rel.Value) (bool, *rel.Instance) {
	var bad *rel.Instance
	forEachInstance(schema, universe, func(i *rel.Instance) bool {
		adom := i.ADom().Sorted()
		n := uint(len(adom))
		for mask := uint64(0); mask < 1<<n; mask++ {
			c := make(rel.ValueSet)
			for b := uint(0); b < n; b++ {
				if mask&(1<<b) != 0 {
					c.Add(adom[b])
				}
			}
			if !q(i.Induced(c)).SubsetOf(q(i)) {
				bad = i.Clone()
				return false
			}
		}
		return true
	})
	return bad == nil, bad
}

// CheckLemma511 verifies Q(J) ⊆ Q(I) for every instance I over the
// universe and every component J of I. Queries in Mdisjoint must pass.
func CheckLemma511(q Query, schema rel.Schema, universe []rel.Value) (bool, *rel.Instance) {
	var bad *rel.Instance
	forEachInstance(schema, universe, func(i *rel.Instance) bool {
		for _, j := range rel.Components(i) {
			if !q(j).SubsetOf(q(i)) {
				bad = i.Clone()
				return false
			}
		}
		return true
	})
	return bad == nil, bad
}
