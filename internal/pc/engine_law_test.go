package pc

import (
	"math/rand"
	"reflect"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mpc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

var _ policy.Policy = (*hypercube.Grid)(nil)

// lawDomain holds SmallJoins' constant, so constants match and joins
// are small but not empty.
var lawDomain = []rel.Value{0, 1, 2, 3, 7}

// randomInstance draws facts over SmallJoins' schema from lawDomain.
func randomInstance(r *rand.Rand) *rel.Instance {
	val := func() rel.Value { return lawDomain[r.Intn(len(lawDomain))] }
	i := rel.NewInstance()
	for n := r.Intn(14); n > 0; n-- {
		i.Add(rel.NewFact([]string{"R", "S"}[r.Intn(2)], val(), val()))
	}
	for n := r.Intn(4); n > 0; n-- {
		i.Add(rel.NewFact("T", val()))
	}
	return i
}

// engineRound runs [Q,P](I) on the engine: one round whose reshuffle is
// the policy itself and whose computation evaluates q. It returns what
// each server was handed and the cluster's output.
func engineRound(t *testing.T, q *cq.CQ, pol policy.Policy, i *rel.Instance) (held []*rel.Instance, out *rel.Instance) {
	t.Helper()
	held = make([]*rel.Instance, pol.NumNodes())
	round := mpc.Round{Name: "[Q,P]", Route: pol, Compute: func(server int, local *rel.Instance) *rel.Instance {
		held[server] = local.Clone()
		return cq.Output(q, local)
	}}
	c, err := mpc.Simulate([]mpc.Round{round}, pol.NumNodes(), i)
	if err != nil {
		t.Fatalf("%v under %T: %v", q, pol, err)
	}
	return held, c.Output()
}

// The engine meets Section 4's definition: the reshuffle of a one-round
// algorithm is a distribution policy, so running policy P as the Route
// of a round hands server κ exactly loc-inst_{P,I}(κ) and the round
// outputs [Q,P](I) — for one value of every policy type, HyperCube's
// grid included (mpcd's placement is held to the same law in its own
// package).
func TestEngineRoundIsDistributedEval(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for trial := 0; trial < 60; trial++ {
		q, i := cq.Random(r, cq.SmallJoins), randomInstance(r)
		seed := r.Uint64()
		keyed := &policy.Hash{Nodes: 4, Keys: map[string][]int{"R": {1}, "S": {0}}, Seed: seed}
		rng := &policy.Range{Nodes: 3, Rel: "R", Col: 0, Cuts: []rel.Value{1, 3}}
		schema, err := q.Schema()
		if err != nil {
			t.Fatal(err)
		}
		finite := randomFinitePolicy(r, schema, lawDomain, 3)
		shares := map[string]int{}
		for v := range q.BodyVars() {
			shares[v] = 1 + r.Intn(3)
		}
		grid, err := hypercube.NewGrid(q, shares, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []policy.Policy{
			keyed,
			&policy.Hash{Nodes: 3, Seed: seed},
			rng,
			&policy.DomainGuided{Nodes: 4, Alpha: map[rel.Value][]policy.Node{7: {0, 2}}, DefaultWidth: 2, Seed: seed},
			&policy.PerRelation{Nodes: 4, Policies: map[string]policy.Policy{"R": keyed, "S": &policy.Replicate{Nodes: 4}}},
			&policy.Union{Members: []policy.Policy{keyed, rng}},
			finite,
			&policy.Func{Nodes: 3, Resp: func(κ policy.Node, f rel.Fact) bool { return int(f.Tuple[0])%3 != κ }},
			&policy.Replicate{Nodes: 3},
			grid,
		} {
			held, out := engineRound(t, q, pol, i)
			for κ, got := range held {
				if want := policy.LocalInstance(pol, i, κ); !got.Equal(want) {
					t.Fatalf("trial %d, %v under %T: server %d was handed %v, loc-inst is %v", trial, q, pol, κ, got, want)
				}
			}
			if want := DistributedEval(q, pol, i); !out.Equal(want) {
				t.Fatalf("trial %d, %v under %T on %v: the round output %v, [Q,P](I) is %v", trial, q, pol, i, out, want)
			}
		}
	}
}

// The mpc constructors are spellings of policy values, comparable as
// such — one implementation of each placement.
func TestRouterConstructorsArePolicyValues(t *testing.T) {
	h := mpc.HashOn(3, []int{1}, 9)
	for _, c := range []struct {
		got  mpc.Router
		want policy.Policy
	}{
		{h, &policy.Hash{Nodes: 3, Cols: []int{1}, Seed: 9}},
		// No positions is one bucket, not Hash's nil "whole tuple".
		{mpc.HashOn(3, nil, 9), &policy.Hash{Nodes: 3, Cols: []int{}, Seed: 9}},
		{mpc.Broadcast(4), &policy.Replicate{Nodes: 4}},
		{mpc.ByRelation(map[string]mpc.Router{"R": h, "S": mpc.Broadcast(4)}), &policy.PerRelation{
			Nodes:    4,
			Policies: map[string]policy.Policy{"R": &policy.Hash{Nodes: 3, Cols: []int{1}, Seed: 9}, "S": &policy.Replicate{Nodes: 4}},
		}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("got %#v, want %#v", c.got, c.want)
		}
	}
}
