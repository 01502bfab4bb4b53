package transducer

import (
	"fmt"
	"maps"
	"slices"

	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// This file implements the domain-guided strategy of Theorem 5.12 for
// Q ∈ Mdisjoint, following the paper's three-step sketch:
//
//  1. broadcast the local active domain;
//  2. on learning a new domain element a, ask one node of α(a) — which
//     by the domain-guided property holds every fact containing a —
//     to transfer those facts;
//  3. evaluate Q on every disjoint-complete subset, i.e. on the union
//     of the components whose values are all fully known.
//
// The pairwise data pulls are not global synchronization: the program
// is coordination-free (ideal distribution = full replication makes
// every value locally complete, so no message is ever needed).

const (
	adomRel = reservedPrefix + "adom"
	reqRel  = reservedPrefix + "req"
	doneRel = reservedPrefix + "done"
)

// DisjointComplete evaluates a domain-disjoint-monotone query on a
// domain-guided network.
type DisjointComplete struct {
	Q Query

	requested map[rel.Value]bool
	complete  map[rel.Value]bool
	// expected[v] is how many facts containing v the responsible node
	// announced; v only becomes complete once that many distinct facts
	// containing v have arrived, because the announcement may be
	// delivered before the data it covers (arbitrary delay).
	expected map[rel.Value]int
	emitted  int // size of the largest union already emitted
}

// Start implements Program.
func (dj *DisjointComplete) Start(ctx *Context) {
	dj.requested = map[rel.Value]bool{}
	dj.complete = map[rel.Value]bool{}
	dj.expected = map[rel.Value]int{}
	// Sorted: broadcast order feeds the message buffers, and map
	// iteration here would make fault-injected runs (where the
	// delivered prefix at a crash point matters) nondeterministic.
	for _, v := range dataFacts(ctx.State()).ADom().Sorted() {
		// Values this node is assigned to are complete locally: a
		// domain-guided node holds every fact containing them.
		if dj.ownedBy(ctx, v) {
			dj.complete[v] = true
		}
		ctx.Broadcast(rel.NewFact(adomRel, v))
	}
	dj.emit(ctx)
}

func (dj *DisjointComplete) ownedBy(ctx *Context, v rel.Value) bool {
	return slices.Contains(ctx.DomainNodes(v), ctx.Self)
}

// OnMessage implements Program.
func (dj *DisjointComplete) OnMessage(ctx *Context, from policy.Node, f rel.Fact) {
	switch f.Rel {
	case adomRel:
		v := f.Tuple[0]
		if dj.complete[v] || dj.requested[v] {
			return
		}
		dj.requested[v] = true
		// Make v part of the local state so the policy may be queried,
		// then pull all facts containing v from one responsible node.
		ctx.State().Add(f)
		if dj.ownedBy(ctx, v) {
			dj.complete[v] = true
			dj.emit(ctx)
			return
		}
		target := ctx.DomainNodes(v)[0]
		ctx.Send(target, rel.NewFact(reqRel, v))
	case reqRel:
		v := f.Tuple[0]
		n := 0
		dataFacts(ctx.State()).Each(func(g rel.Fact) bool {
			if g.ADom().Contains(v) {
				ctx.Send(from, g)
				n++
			}
			return true
		})
		ctx.Send(from, rel.NewFact(doneRel, v, rel.Value(n)))
	case doneRel:
		dj.expected[f.Tuple[0]] = int(f.Tuple[1])
		dj.settle(ctx)
	default: // data fact
		ctx.State().Add(f)
		dj.settle(ctx)
	}
}

// OnPeerRestart implements Recoverer: re-announce the active domain
// this node knows about. The restarted node's own pull protocol
// (request → transfer → done) then rebuilds the lost data; the pulls
// are idempotent, so racing with in-flight pre-crash messages is safe.
func (dj *DisjointComplete) OnPeerRestart(ctx *Context, κ policy.Node) {
	vs := dataFacts(ctx.State()).ADom().Sorted()
	for _, v := range vs {
		ctx.Send(κ, rel.NewFact(adomRel, v))
	}
}

// Snapshot implements Forkable.
func (dj *DisjointComplete) Snapshot() Program {
	cp := *dj
	cp.requested, cp.complete, cp.expected = maps.Clone(dj.requested), maps.Clone(dj.complete), maps.Clone(dj.expected)
	return &cp
}

// Fingerprint implements Forkable (fmt prints maps in key order).
func (dj *DisjointComplete) Fingerprint() string {
	return fmt.Sprint(dj.requested, dj.complete, dj.expected, dj.emitted)
}

// settle promotes values to complete once all announced facts have
// arrived, then re-emits.
func (dj *DisjointComplete) settle(ctx *Context) {
	state := dataFacts(ctx.State())
	counts := map[rel.Value]int{}
	state.Each(func(g rel.Fact) bool {
		for v := range g.ADom() {
			counts[v]++
		}
		return true
	})
	for v, n := range dj.expected {
		if !dj.complete[v] && counts[v] >= n {
			dj.complete[v] = true
		}
	}
	dj.emit(ctx)
}

// emit outputs Q over the union of the fully known components.
func (dj *DisjointComplete) emit(ctx *Context) {
	state := dataFacts(ctx.State())
	union := rel.NewInstance()
	for _, comp := range rel.Components(state) {
		ok := true
		for v := range comp.ADom() {
			if !dj.complete[v] {
				ok = false
				break
			}
		}
		if ok {
			union.AddAll(comp)
		}
	}
	if union.Len() < dj.emitted {
		return
	}
	dj.emitted = union.Len()
	outputAll(ctx, dj.Q(union))
}
