package mpcd

import (
	"math/rand"
	"slices"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mpc"
	"mpclogic/internal/pc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

var (
	_ policy.Policy      = (*placement)(nil)
	_ mpc.RelationRouter = (*placement)(nil)
)

// TestServingPlacementIsSound states, about the placement the daemon
// runs, what reuse relies on. Along TestTransferLawAtServingSeam's
// script, after every repartition: the fragments are the placement's
// image (policy.Verify finds nothing, and server κ holds exactly
// loc-inst(κ)); the anchor is parallel-correct under its placement,
// parking included (pc.ParallelCorrect over a small universe that holds
// the anchor's constants), so its answer on the fragments is [Q,P](I);
// and one engine round routed by the placement — Section 4's [Q,P](I)
// run as an MPC round — hands out those same fragments and outputs
// pc.DistributedEval.
func TestServingPlacementIsSound(t *testing.T) {
	s := New(Config{})
	resp, aerr := s.createSession(&lawCreate)
	if aerr != nil {
		t.Fatal(aerr)
	}
	sess := s.sessions[resp.Session]
	input := sess.cluster.Output()
	r := rand.New(rand.NewSource(41))
	anchors := map[string]bool{}
	for n := 0; n < 72; n++ {
		got, aerr := sess.run(&queryRequest{Session: sess.ID, Query: lawQueries[r.Intn(len(lawQueries))]})
		if aerr != nil {
			t.Fatal(aerr)
		}
		if got.Path != PathRepartitioned {
			continue
		}
		q := sess.anchor.cq
		pl, aerr := sess.anchor.plan.placementFor(q, sess.p, sess.seed)
		if aerr != nil {
			t.Fatal(aerr)
		}
		fragments := make([]*rel.Instance, sess.p)
		for κ := range fragments {
			fragments[κ] = sess.cluster.Server(κ)
		}
		if vs := policy.Verify(pl, fragments); len(vs) > 0 {
			t.Fatalf("step %d, anchor %s: %v", n, sess.anchor.text, vs[0])
		}
		if anchors[sess.anchor.text] {
			continue
		}
		anchors[sess.anchor.text] = true

		universe := make(rel.ValueSet)
		universe.AddAll(q.Constants())
		for v := rel.Value(1); len(universe) < 3; v++ {
			universe.Add(v)
		}
		if ok, w, err := pc.ParallelCorrect(q, pl, universe.Sorted()); err != nil || !ok {
			t.Fatalf("anchor %s is not parallel-correct under its placement: %v %v", sess.anchor.text, w, err)
		}
		round := mpc.Round{Name: "[Q,P]", Route: pl, Compute: func(κ int, local *rel.Instance) *rel.Instance {
			if want := policy.LocalInstance(pl, input, κ); !local.Equal(want) || !fragments[κ].Equal(want) {
				t.Errorf("anchor %s: server %d is routed %d facts and serves from %d, loc-inst has %d",
					sess.anchor.text, κ, local.Len(), fragments[κ].Len(), want.Len())
			}
			return cq.Output(q, local)
		}}
		c, err := mpc.Simulate([]mpc.Round{round}, pl.NumNodes(), input)
		if err != nil {
			t.Fatal(err)
		}
		if want := pc.DistributedEval(q, pl, input); !c.Output().Equal(want) || !want.Equal(cq.Output(q, input)) {
			t.Fatalf("anchor %s: the round outputs %d facts, [Q,P](I) has %d, Q(I) %d",
				sess.anchor.text, c.Output().Len(), want.Len(), cq.Output(q, input).Len())
		}
	}
	if len(anchors) < 5 {
		t.Fatalf("the script met %d anchors", len(anchors))
	}
}

// TestTargetsDoesNotAllocate: the placement routes a fact one atom of
// the grid matches, and a fact it parks, without an allocation — both
// are windows of tables the placement holds — and the same servers as
// the grid and the parking hash name.
func TestTargetsDoesNotAllocate(t *testing.T) {
	sess := joinSession(t, 50, 0)
	sq, aerr := sess.parseQuery(LangCQ, anchorQ, "")
	if aerr != nil {
		t.Fatal(aerr)
	}
	pl, aerr := sq.plan.placementFor(sq.cq, sess.p, sess.seed)
	if aerr != nil {
		t.Fatal(aerr)
	}
	parked := rel.NewFact("Z", 3, 4)
	for _, f := range []rel.Fact{rel.NewFact("R", 1, 2), rel.NewFact("S", 2, 9), parked} {
		want := pl.grid.Targets(f)
		if f.Rel == parked.Rel {
			want = []int{int(rel.Mix64(f.Hash()^sess.seed^parkSalt) % uint64(sess.p))}
		}
		got := pl.Route(f)
		if !slices.Equal(got, want) || cap(got) != len(got) {
			t.Fatalf("Route(%v) = %v (cap %d), want %v", f, got, cap(got), want)
		}
		if n := testing.AllocsPerRun(100, func() { routeSink = pl.Route(f) }); n != 0 {
			t.Errorf("Route(%v) allocates %v times, want 0", f, n)
		}
	}
}

var routeSink []int

// ownerReference is the placement's owner as it was asked of each fact:
// the least server Route puts f on for a relation the grid replicates,
// and −1 for a fact placed once.
func ownerReference(pl *placement, f rel.Fact) int {
	if slices.Contains(pl.replicated, f.Rel) {
		if least, ok := pl.grid.First(f); ok {
			return least
		}
	}
	return -1
}

// TestRelationRouteMatchesFactRoute is the law on the placement's
// per-relation forms, on anchors drawn at random — self-joins,
// constants, repeated variables — over p = 1 … 8 servers, and facts
// that match an atom, match none and park, or belong to a relation the
// anchor does not read: the route resolved once per relation gives
// every fact Route's servers, slice for slice, and the owner resolved
// once per relation is the per-fact reference owner (a nil owner
// function counting as −1). The owner is also checked against Route
// itself: −1 only for a fact placed on one server, else the least of
// its servers.
func TestRelationRouteMatchesFactRoute(t *testing.T) {
	shape := cq.RandomShape{
		Rels: []string{"R", "S", "T"}, Arity: []int{2, 2, 3},
		Vars: []string{"u", "v", "w", "x", "y"}, Prefix: true,
		MaxAtoms: 4, Consts: []rel.Value{0, 1, 2, 3}, ConstOneIn: 5,
	}
	r := rand.New(rand.NewSource(44))
	anchors, parked, replicated := 0, 0, 0
	for trial := 0; trial < 200; trial++ {
		q := cq.Random(r, shape)
		p, seed := 1+r.Intn(8), r.Uint64()
		grid, err := hypercube.NewOptimalGrid(q, p, seed)
		if err != nil {
			continue // no share assignment: the daemon refuses the query
		}
		anchors++
		pl := newPlacement(grid, p, seed)
		for _, name := range []string{"R", "S", "T", "U"} {
			for arity := 1; arity <= 3; arity++ {
				route, owner := pl.RouteRelation(name, arity), pl.owner(name, arity)
				for k := 0; k < 12; k++ {
					tuple := make(rel.Tuple, arity)
					for i := range tuple {
						tuple[i] = rel.Value(r.Intn(4))
					}
					f := rel.Fact{Rel: name, Tuple: tuple}
					got, want := route(tuple), pl.Route(f)
					if !slices.Equal(got, want) {
						t.Fatalf("%v on p=%d: RouteRelation(%q, %d)(%v) = %v, Route = %v", q, p, name, arity, tuple, got, want)
					}
					if len(grid.Targets(f)) == 0 {
						parked++
					}
					o := -1
					if owner != nil {
						o = owner(tuple)
					}
					if ref := ownerReference(pl, f); o != ref {
						t.Fatalf("%v on p=%d: owner(%q, %d)(%v) = %d, reference %d", q, p, name, arity, tuple, o, ref)
					}
					if o < 0 && len(want) != 1 || o >= 0 && o != want[0] {
						t.Fatalf("%v on p=%d: owner of %v is %d but Route places it on %v", q, p, f, o, want)
					}
					if o >= 0 {
						replicated++
					}
				}
			}
		}
	}
	if anchors < 100 || parked == 0 || replicated == 0 {
		t.Fatalf("%d anchors, %d facts parked and %d with an elected owner: the law was not exercised", anchors, parked, replicated)
	}
}
