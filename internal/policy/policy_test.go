package policy

import (
	"math/rand"
	"testing"

	"mpclogic/internal/rel"
)

func TestFinitePolicy(t *testing.T) {
	d := rel.NewDict()
	f1 := rel.MustFact(d, "R(a,b)")
	f2 := rel.MustFact(d, "S(a)")
	p := NewFinite(3, d.Values("a", "b"))
	p.Assign(2, f1).Assign(0, f1).Assign(1, f2).Assign(0, f1) // dup no-op

	if got := p.Route(f1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Route(f1) = %v", got)
	}
	if !Responsible(p, 0, f1) || Responsible(p, 1, f1) || !Responsible(p, 1, f2) {
		t.Errorf("Responsible wrong")
	}
	if len(p.Route(rel.MustFact(d, "T(a)"))) != 0 {
		t.Errorf("unassigned fact has nodes")
	}
	if got := p.Universe(); len(got) != 2 {
		t.Errorf("Universe = %v", got)
	}
}

func TestFinitePolicyPanicsOutOfRange(t *testing.T) {
	d := rel.NewDict()
	p := NewFinite(2, nil)
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-range Assign did not panic")
		}
	}()
	p.Assign(5, rel.MustFact(d, "R(a)"))
}

func TestLocalInstanceAndDistribute(t *testing.T) {
	d := rel.NewDict()
	i := rel.MustInstance(d, "R(a,b)", "R(b,a)", "S(a)")
	p := NewFinite(2, d.Values("a", "b"))
	p.Assign(0, rel.MustFact(d, "R(a,b)"))
	p.Assign(0, rel.MustFact(d, "S(a)"))
	p.Assign(1, rel.MustFact(d, "R(b,a)"))
	p.Assign(1, rel.MustFact(d, "R(a,b)"))

	loc0 := LocalInstance(p, i, 0)
	if loc0.Len() != 2 || !loc0.Contains(rel.MustFact(d, "S(a)")) {
		t.Errorf("loc0 = %v", loc0.StringWith(d))
	}
	parts := Distribute(p, i)
	if len(parts) != 2 || !parts[0].Equal(loc0) {
		t.Errorf("Distribute disagrees with LocalInstance")
	}
	if parts[1].Len() != 2 {
		t.Errorf("loc1 = %v", parts[1].StringWith(d))
	}
}

func TestMeetsAtSomeNode(t *testing.T) {
	d := rel.NewDict()
	f1 := rel.MustFact(d, "R(a,b)")
	f2 := rel.MustFact(d, "R(b,a)")
	p := NewFinite(2, nil)
	// f1 on both nodes, f2 only on node 1.
	p.Assign(0, f1).Assign(1, f1).Assign(1, f2)
	if !MeetsAtSomeNode(p, []rel.Fact{f1, f2}) {
		t.Errorf("facts meet at node 1 but not detected")
	}
	f3 := rel.MustFact(d, "S(a)")
	p.Assign(0, f3)
	if MeetsAtSomeNode(p, []rel.Fact{f2, f3}) {
		t.Errorf("non-meeting facts reported as meeting")
	}
	if !MeetsAtSomeNode(p, nil) {
		t.Errorf("empty fact set should meet on nonempty network")
	}
}

func TestReplicate(t *testing.T) {
	d := rel.NewDict()
	p := &Replicate{Nodes: 4}
	f := rel.MustFact(d, "R(a)")
	if got := p.Route(f); len(got) != 4 {
		t.Errorf("Route = %v", got)
	}
	for κ := Node(0); κ < 4; κ++ {
		if !Responsible(p, κ, f) {
			t.Errorf("node %d not responsible", κ)
		}
	}
	if Responsible(p, 4, f) || Responsible(p, -1, f) {
		t.Errorf("out-of-range node responsible")
	}
}

func TestHashPolicySingleTargetConsistent(t *testing.T) {
	p := &Hash{Nodes: 5, Keys: map[string][]int{"R": {1}, "S": {0}}}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		f := rel.NewFact("R", rel.Value(r.Intn(100)), rel.Value(r.Intn(100)))
		ns := p.Route(f)
		if len(ns) != 1 {
			t.Fatalf("hash policy fanout %d", len(ns))
		}
		if !Responsible(p, ns[0], f) {
			t.Fatalf("Responsible disagrees with Route")
		}
	}
	// Join-key collocation: R(·, v) and S(v, ·) land together.
	for v := rel.Value(0); v < 50; v++ {
		rf := rel.NewFact("R", 999, v)
		sf := rel.NewFact("S", v, 888)
		if p.Route(rf)[0] != p.Route(sf)[0] {
			t.Fatalf("join keys not collocated for v=%d", v)
		}
	}
	// Unkeyed relation hashes whole tuple, deterministically.
	f := rel.NewFact("T", 1, 2)
	if p.Route(f)[0] != p.Route(f)[0] {
		t.Errorf("nondeterministic hash")
	}
	// Different seeds give (usually) different placements.
	p2 := &Hash{Nodes: 5, Keys: p.Keys, Seed: 0xdeadbeef}
	diff := 0
	for v := rel.Value(0); v < 100; v++ {
		if p.Route(rel.NewFact("R", 0, v))[0] != p2.Route(rel.NewFact("R", 0, v))[0] {
			diff++
		}
	}
	if diff == 0 {
		t.Errorf("seed has no effect")
	}
}

func TestRangePolicy(t *testing.T) {
	p := &Range{Nodes: 3, Rel: "Customer", Col: 1, Cuts: []rel.Value{100, 200}}
	cases := []struct {
		v    rel.Value
		want Node
	}{{0, 0}, {99, 0}, {100, 1}, {199, 1}, {200, 2}, {5000, 2}}
	for _, c := range cases {
		f := rel.NewFact("Customer", 7, c.v)
		ns := p.Route(f)
		if len(ns) != 1 || ns[0] != c.want {
			t.Errorf("value %d → %v, want node %d", c.v, ns, c.want)
		}
	}
	// Other relations are replicated.
	other := rel.NewFact("Nation", 1)
	if got := p.Route(other); len(got) != 3 {
		t.Errorf("dimension fact fanout = %d", len(got))
	}
}

func TestDomainGuided(t *testing.T) {
	p := &DomainGuided{
		Nodes: 4,
		Alpha: map[rel.Value][]Node{
			1: {0},
			2: {1, 2},
		},
		DefaultWidth: 1,
	}
	f := rel.NewFact("E", 1, 2)
	ns := p.Route(f)
	// α(1) ∪ α(2) = {0, 1, 2}.
	if len(ns) != 3 || ns[0] != 0 || ns[1] != 1 || ns[2] != 2 {
		t.Errorf("Route = %v", ns)
	}
	for _, κ := range ns {
		if !Responsible(p, κ, f) {
			t.Errorf("node %d not responsible", κ)
		}
	}
	if Responsible(p, 3, f) {
		t.Errorf("node 3 responsible but not in α-union")
	}
	// Unassigned values get a deterministic default.
	g := rel.NewFact("E", 77, 77)
	if len(p.Route(g)) != 1 {
		t.Errorf("default width violated: %v", p.Route(g))
	}
	// Key property of domain-guided policies: some node holds ALL facts
	// containing a given value a — here α is single-valued per value,
	// so every fact containing 1 includes node 0.
	if !Responsible(p, 0, rel.NewFact("E", 1, 99)) {
		t.Errorf("node 0 lost a fact containing value 1")
	}
	// Nullary facts are replicated.
	if got := p.Route(rel.NewFact("B")); len(got) != 4 {
		t.Errorf("nullary fanout = %d", len(got))
	}
}

func TestFuncPolicy(t *testing.T) {
	d := rel.NewDict()
	// Example 4.3's policy: every fact except R(a,b) on node 0, every
	// fact except R(b,a) on node 1.
	ab := rel.MustFact(d, "R(a,b)")
	ba := rel.MustFact(d, "R(b,a)")
	p := &Func{
		Nodes: 2,
		Resp: func(κ Node, f rel.Fact) bool {
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
	if Responsible(p, 0, ab) || !Responsible(p, 1, ab) {
		t.Errorf("R(a,b) placement wrong")
	}
	if got := p.Route(rel.MustFact(d, "R(a,a)")); len(got) != 2 {
		t.Errorf("R(a,a) fanout = %v", got)
	}
	if got := p.Universe(); len(got) != 2 {
		t.Errorf("universe = %v", got)
	}
}

func TestPerRelationPolicy(t *testing.T) {
	d := rel.NewDict()
	p := &PerRelation{
		Nodes: 4,
		Policies: map[string]Policy{
			"Fact": &Hash{Nodes: 4},
			"Dim":  &Replicate{Nodes: 4},
		},
	}
	ff := rel.MustFact(d, "Fact(a,b)")
	df := rel.MustFact(d, "Dim(x)")
	if got := len(p.Route(ff)); got != 1 {
		t.Errorf("fact-table fanout = %d", got)
	}
	if got := len(p.Route(df)); got != 4 {
		t.Errorf("dimension fanout = %d", got)
	}
	if got := p.Route(rel.MustFact(d, "Other(z)")); got != nil {
		t.Errorf("unlisted relation routed: %v", got)
	}
	p.Default = &Replicate{Nodes: 4}
	if got := len(p.Route(rel.MustFact(d, "Other(z)"))); got != 4 {
		t.Errorf("default not applied: %d", got)
	}
}

func TestUnionPolicy(t *testing.T) {
	d := rel.NewDict()
	base := &Hash{Nodes: 4}
	hot := rel.MustFact(d, "R(a,b)")
	overlay := NewFinite(4, nil)
	for κ := Node(0); κ < 4; κ++ {
		overlay.Assign(κ, hot)
	}
	u := &Union{Members: []Policy{base, overlay}}
	if u.NumNodes() != 4 {
		t.Errorf("NumNodes = %d", u.NumNodes())
	}
	if got := len(u.Route(hot)); got != 4 {
		t.Errorf("hot fact fanout = %d, want 4 (replicated overlay)", got)
	}
	cold := rel.MustFact(d, "R(c,e)")
	if got := len(u.Route(cold)); got != 1 {
		t.Errorf("cold fact fanout = %d, want 1 (base hash)", got)
	}
	for _, κ := range u.Route(cold) {
		if !Responsible(u, κ, cold) {
			t.Errorf("Responsible disagrees with Route")
		}
	}
}
