package hypercube

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/rel"
)

// The reference router: the interpreter Grid.Targets ran before NewGrid
// compiled atoms into routing plans — match the fact against each atom
// term by term, hash bound variables into per-dimension coordinates,
// enumerate the free dimensions recursively. It reads only the grid's
// definition (Query, Shares, Seed, dims, stride), never the plans, so
// it is the oracle the compiled router must equal, destination for
// destination and in order.

// hash maps a value to a coordinate in dimension dim. The dimension
// index and seed are folded in before a final avalanche so that the
// per-dimension hash functions behave independently.
func (g *Grid) hash(dim int, v rel.Value) int {
	h := rel.Mix64((rel.Tuple{v}).Hash() ^ g.Seed ^ (uint64(dim+1) * 0x9e3779b97f4a7c15))
	return int(h % uint64(g.Shares[dim]))
}

// server converts a full coordinate vector to a server id.
func (g *Grid) server(coord []int) int {
	id := 0
	for i, c := range coord {
		id += c * g.stride[i]
	}
	return id
}

func (g *Grid) targetsRef(f rel.Fact) []int {
	var out []int
	atoms := 0
	for _, a := range g.Query.Body {
		if a.Rel != f.Rel || len(a.Args) != len(f.Tuple) {
			continue
		}
		fixed, ok := g.atomBinding(a, f)
		if !ok {
			continue
		}
		atoms++
		g.enumerate(fixed, func(server int) {
			out = append(out, server)
		})
	}
	if atoms > 1 {
		sort.Ints(out)
		n := 0
		for i, s := range out {
			if i > 0 && s == out[n-1] {
				continue
			}
			out[n] = s
			n++
		}
		out = out[:n]
	}
	return out
}

// atomBinding matches f against atom a, returning per-dimension fixed
// coordinates (-1 = free) or ok=false when the fact cannot instantiate
// the atom.
func (g *Grid) atomBinding(a cq.Atom, f rel.Fact) ([]int, bool) {
	fixed := make([]int, len(g.Shares))
	for i := range fixed {
		fixed[i] = -1
	}
	for i, t := range a.Args {
		v := f.Tuple[i]
		if !t.IsVar() {
			if t.Const != v {
				return nil, false
			}
			continue
		}
		first := i
		for j := 0; j < i; j++ {
			if a.Args[j].IsVar() && a.Args[j].Var == t.Var {
				first = j
				break
			}
		}
		if first < i {
			if f.Tuple[first] != v {
				return nil, false
			}
			continue
		}
		dim := g.dims[t.Var]
		fixed[dim] = g.hash(dim, v)
	}
	return fixed, true
}

// enumerate calls fn with every server id matching the fixed
// coordinates (free dimensions range over their full share).
func (g *Grid) enumerate(fixed []int, fn func(int)) {
	coord := make([]int, len(fixed))
	var rec func(dim int)
	rec = func(dim int) {
		if dim == len(fixed) {
			fn(g.server(coord))
			return
		}
		if fixed[dim] >= 0 {
			coord[dim] = fixed[dim]
			rec(dim + 1)
			return
		}
		for c := 0; c < g.Shares[dim]; c++ {
			coord[dim] = c
			rec(dim + 1)
		}
	}
	rec(0)
}

// routingShape draws CQs over relations R, S, T (arities 2, 2, 3) whose
// atoms mix variables from a small pool — so variables repeat inside an
// atom and relations repeat across atoms (self-joins that reach the
// multi-atom sort and dedup) — with constants from the same small
// domain the facts come from.
var routingShape = cq.RandomShape{
	Rels: []string{"R", "S", "T"}, Arity: []int{2, 2, 3},
	Vars: []string{"u", "v", "w", "x", "y"}, Prefix: true,
	MaxAtoms: 4, Consts: []rel.Value{0, 1, 2, 3}, ConstOneIn: 5,
}

// eachRoutingTrial draws 300 random CQs (routingShape) under random
// shares that include share-1 dimensions and, for each, 60 facts over
// the same small domain — matching facts, and facts of the wrong arity
// or an unknown relation — calling fn with every (grid, fact) pair.
func eachRoutingTrial(t *testing.T, fn func(g *Grid, f rel.Fact)) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		q := cq.Random(r, routingShape)
		shares := map[string]int{}
		for _, v := range varsOfBody(q) {
			shares[v] = 1 + r.Intn(4)
			if r.Intn(3) == 0 {
				shares[v] = 1
			}
		}
		g, err := NewGrid(q, shares, r.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 60; k++ {
			name := []string{"R", "S", "T", "U"}[r.Intn(4)]
			tuple := make(rel.Tuple, 1+r.Intn(3))
			for i := range tuple {
				tuple[i] = rel.Value(r.Intn(4))
			}
			fn(g, rel.Fact{Rel: name, Tuple: tuple})
		}
	}
}

// Property: the compiled Grid.Targets equals the interpreted reference
// on random CQs with constants, repeated variables and self-joins,
// under random shares that include share-1 dimensions, for matching
// facts and for facts of the wrong arity or an unknown relation.
func TestPropCompiledTargetsEqualReference(t *testing.T) {
	multi := 0
	eachRoutingTrial(t, func(g *Grid, f rel.Fact) {
		q := g.Query
		got, want := g.Targets(f), g.targetsRef(f)
		if !slices.Equal(got, want) {
			t.Fatalf("%v on %v seed %d: Targets(%v) = %v, reference %v", q, g, g.Seed, f, got, want)
		}
		matched := 0
		for _, a := range q.Body {
			if a.Rel == f.Rel && len(a.Args) == len(f.Tuple) {
				if _, ok := g.atomBinding(a, f); ok {
					matched++
				}
			}
		}
		if matched > 1 {
			multi++
		}
	})
	if multi == 0 {
		t.Fatal("no trial reached the multi-atom sort and dedup")
	}
}

// Property: First is Targets' least element and says ok exactly when
// there is one, on the same trials — several matching atoms, whose
// corners First must compare, and facts that go nowhere included.
func TestPropFirstIsLeastTarget(t *testing.T) {
	nowhere, several := 0, 0
	eachRoutingTrial(t, func(g *Grid, f rel.Fact) {
		ts := g.Targets(f)
		first, ok := g.First(f)
		if ok != (len(ts) > 0) || ok && first != ts[0] {
			t.Fatalf("%v on %v seed %d: First(%v) = %d, %v but Targets = %v", g.Query, g, g.Seed, f, first, ok, ts)
		}
		if !ok {
			nowhere++
		}
		if len(ts) > 1 {
			several++
		}
	})
	if nowhere == 0 || several == 0 {
		t.Fatalf("%d facts went nowhere and %d to several servers: First was not exercised both ways", nowhere, several)
	}
}

// routingBench is the serve_repartition shape: the two-atom join on a
// p=8 grid, where the LP puts every share on the join variable.
func routingBench(tb testing.TB) (*Grid, []rel.Fact) {
	q := joinQuery(rel.NewDict())
	shares, _, err := OptimalShares(q, 8)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := NewGrid(q, shares, 1)
	if err != nil {
		tb.Fatal(err)
	}
	facts := make([]rel.Fact, 1024)
	for i := range facts {
		facts[i] = rel.NewFact([]string{"R", "S"}[i%2], rel.Value(i), rel.Value(7*i+1))
	}
	return g, facts
}

// allocGrids is the three shapes the allocation tests route through: a
// single-atom match, a self-join that sorts and dedups, and a grid with
// free dimensions to enumerate.
func allocGrids(t *testing.T) ([]*Grid, []rel.Fact) {
	join, facts := routingBench(t)
	d := rel.NewDict()
	self, err := NewGrid(cq.MustParse(d, "F(x, z) :- R(x, y), R(y, z)"), map[string]int{"x": 2, "y": 2, "z": 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	tri, err := NewGrid(triangleQuery(d), map[string]int{"x": 2, "y": 2, "z": 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []*Grid{join, self, tri}, facts[:8]
}

// Routing a fact one atom matches allocates nothing: its destinations
// are a block of the atom's table — on a single-atom match and on a grid
// with free dimensions to enumerate. A self-join's fact, which both
// atoms match, allocates its sorted and compacted list and nothing else.
func TestTargetsAllocatesOnlyItsResult(t *testing.T) {
	grids, facts := allocGrids(t)
	for k, g := range grids {
		routed := 0
		for _, f := range facts {
			want := 0.0
			if k == 1 && f.Rel == "R" { // both atoms of the self-join match
				want = 1
			}
			routed += len(g.Targets(f))
			if n := testing.AllocsPerRun(100, func() { sink = g.Targets(f) }); n != want {
				t.Errorf("%v: Targets(%v) allocates %v times, want %v", g, f, n, want)
			}
		}
		if routed == 0 {
			t.Errorf("%v routed none of the facts", g)
		}
	}
}

// First elects an owner for every copy a source holds, so it may not
// allocate at all — on the same three grids.
func TestFirstDoesNotAllocate(t *testing.T) {
	grids, facts := allocGrids(t)
	for _, g := range grids {
		for _, f := range facts {
			if n := testing.AllocsPerRun(100, func() { sinkFirst, _ = g.First(f) }); n != 0 {
				t.Errorf("%v: First(%v) allocates %v times, want 0", g, f, n)
			}
		}
	}
}

var sinkFirst int

var sink []int

func BenchmarkGridTargets(b *testing.B) {
	g, facts := routingBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = g.Targets(facts[i%len(facts)])
	}
}

// checkRelationRoute holds the route a grid resolves once per relation
// to the fact route: route — g.RouteRelation(f.Rel, len(f.Tuple)),
// resolved by the caller — must give f's tuple the reference router's
// destinations and Route(f)'s, slice for slice, and the restriction's
// First must be First(f).
func checkRelationRoute(t *testing.T, g *Grid, route func(rel.Tuple) []int, f rel.Fact) {
	t.Helper()
	got, want := route(f.Tuple), g.targetsRef(f)
	if !slices.Equal(got, want) || !slices.Equal(got, g.Route(f)) {
		t.Fatalf("%v on %v seed %d: RouteRelation(%q, %d)(%v) = %v, reference %v, Route %v",
			g.Query, g, g.Seed, f.Rel, len(f.Tuple), f.Tuple, got, want, g.Route(f))
	}
	first, ok := g.Relation(f.Rel, len(f.Tuple)).First(f.Tuple)
	if wantFirst, wantOK := g.First(f); first != wantFirst || ok != wantOK || ok != (len(want) > 0) || ok && first != want[0] {
		t.Fatalf("%v on %v seed %d: Relation(%q, %d).First(%v) = %d, %v; First = %d, %v; reference %v",
			g.Query, g, g.Seed, f.Rel, len(f.Tuple), f.Tuple, first, ok, wantFirst, wantOK, want)
	}
}

// TestRelationRouteMatchesFactRoute is the law on a grid's per-relation
// route: resolved once per relation and arity and asked of each tuple,
// it routes every fact as the per-fact Route does, and its First is
// First — on random CQs with self-joins, constants and repeated
// variables, and on facts that match no atom, of an unknown relation,
// or of another arity than the atoms over their relation.
func TestRelationRouteMatchesFactRoute(t *testing.T) {
	type relKey struct {
		name  string
		arity int
	}
	var grid *Grid
	var routes map[relKey]func(rel.Tuple) []int
	nowhere, several := 0, 0
	eachRoutingTrial(t, func(g *Grid, f rel.Fact) {
		if g != grid {
			grid, routes = g, map[relKey]func(rel.Tuple) []int{}
		}
		k := relKey{f.Rel, len(f.Tuple)}
		if routes[k] == nil {
			routes[k] = g.RouteRelation(k.name, k.arity)
		}
		checkRelationRoute(t, g, routes[k], f)
		switch n := len(g.targetsRef(f)); {
		case n == 0:
			nowhere++
		case n > 1:
			several++
		}
	})
	if nowhere == 0 || several == 0 {
		t.Fatalf("%d facts went nowhere and %d to several servers", nowhere, several)
	}
}

// FuzzRelationRoute is TestRelationRouteMatchesFactRoute's law over a
// query, shares and seed drawn from seed (routingShape) and facts read
// from the first 64 bytes: per fact, a relation byte, an arity byte and
// that many values over the domain the query's constants come from. The
// bound keeps an exec, and so the fuzzer's minimization of a long input,
// from growing with the input's length.
func FuzzRelationRoute(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 1, 1, 0, 0, 2, 2, 1, 2, 3})
	f.Add(int64(7), []byte{0, 0, 3, 3, 2, 0, 1, 2, 1, 1, 1})
	f.Fuzz(func(t *testing.T, seed int64, facts []byte) {
		r := rand.New(rand.NewSource(seed))
		q := cq.Random(r, routingShape)
		shares := map[string]int{}
		for _, v := range varsOfBody(q) {
			shares[v] = 1 + r.Intn(4)
		}
		g, err := NewGrid(q, shares, r.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		facts = facts[:min(len(facts), 64)]
		for len(facts) >= 2 {
			name := []string{"R", "S", "T", "U"}[facts[0]%4]
			arity := 1 + int(facts[1]%3)
			facts = facts[2:]
			if len(facts) < arity {
				return
			}
			tuple := make(rel.Tuple, arity)
			for i := range tuple {
				tuple[i] = rel.Value(facts[i] % 5)
			}
			facts = facts[arity:]
			checkRelationRoute(t, g, g.RouteRelation(name, arity), rel.Fact{Rel: name, Tuple: tuple})
		}
	})
}
