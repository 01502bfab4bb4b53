package mpc

import (
	"fmt"
	"sync"

	"mpclogic/internal/rel"
)

// Transport moves a round's routed communication shards to their
// destination servers and hands back each destination's merged inbox.
// It is the seam between the simulator and a real network: the routing
// phase (which facts go where, and what they cost) and the computation
// phase are transport-independent, while HOW the per-destination
// outboxes travel — an in-process slice adoption, frames published and
// pulled over TCP sockets, or anything future — is the transport's
// whole concern.
//
// The contract every implementation must honor, and the conformance
// suite (internal/mpc/transportconf) checks:
//
//   - Delivery: inbox dst holds exactly the union over all shards of
//     Outs[dst], and received[dst] = Σ_w shards[w].Sent[dst].
//   - Deterministic merge: shards are merged into an inbox in
//     ascending shard order — position, never arrival order — so two
//     runs of the same exchange are byte-identical downstream no
//     matter how the wire reorders frames.
//   - Error atomicity: on a non-nil error no partial results are
//     visible to the caller; RunRound turns that into its
//     atomic-on-failure guarantee.
//   - No logical cost distortion: a transport may retransmit or
//     duplicate physically, but the returned received counts are the
//     logical ones computed from the shards' Sent counters.
//
// Exchange is called sequentially by a cluster (never concurrently on
// one transport value), with p fixed across a cluster's lifetime.
type Transport interface {
	// Exchange delivers one round's shards and returns the merged
	// per-destination inboxes and logical received counts.
	Exchange(round string, p int, shards []Shard) (inboxes []*rel.Instance, received []int, err error)
	// Close releases transport resources (listeners, connections).
	// A closed transport may not Exchange again.
	Close() error
}

// FrameFaultInjector is the optional transport extension the
// fault-tolerance layer uses to realize a FaultPlan's drop,
// duplication, and corruption schedule PHYSICALLY at the frame layer,
// on the serving side of the data plane (plane.go): the first pulls of
// an affected frame are answered with an aborted connection (a
// truncated frame or an RST) per drop and a bit-flipped frame per
// corruption, each of which the puller's codec checks reject and its
// re-pull repairs, and the first clean answer is trailed by an extra
// identical frame per dup, which a puller that reads one frame never
// sees. A cluster that can hold a plan routes one shard per source
// (chunk 1), so the (shard, dst) frame coordinates coincide with the
// plan's (src, dst) links. Logical accounting of the same faults stays
// in recovery.go on the virtual clock; the injection only proves the
// wire path really absorbs the havoc.
type FrameFaultInjector interface {
	// InjectFrameFaults arms the transport's next Exchange with the
	// plan's drops/dups/corruptions for absolute round index round.
	// A nil plan disarms.
	InjectFrameFaults(round int, plan *FaultPlan)
}

// WithTransport installs the transport the cluster's communication
// phases run over. The default is the in-process Local transport; the
// caller keeps ownership of the transport and closes it after the
// cluster is done.
func WithTransport(t Transport) Option {
	return func(c *Cluster) { c.tr = t }
}

// localTransport is the in-process transport: shards are merged by
// direct slice adoption, no copies, no wire. It is the bit-compatible
// extraction of the pre-transport merge phase — the golden determinism
// traces pin that.
type localTransport struct{}

// NewLocalTransport returns the in-process transport.
func NewLocalTransport() Transport { return localTransport{} }

func (localTransport) Exchange(round string, p int, shards []Shard) ([]*rel.Instance, []int, error) {
	return mergeShards(round, p, shards)
}

func (localTransport) Close() error { return nil }

// mergeShards merges shards into per-destination inboxes, one goroutine
// per destination, each visiting shards in ascending order. Every
// worker writes only its own index of inboxes/received/mergeErrs, and
// the (dst, shard) merge order is fixed, so the resulting inboxes and
// load accounting are byte-identical to a sequential merge. This is
// both the Local transport's Exchange and the reference merge every
// other transport must reproduce.
func mergeShards(round string, p int, shards []Shard) ([]*rel.Instance, []int, error) {
	inboxes := make([]*rel.Instance, p)
	received := make([]int, p)
	mergeErrs := make([]error, p)
	owned := true
	for w := range shards {
		owned = owned && shards[w].owned
	}
	var mergeWG sync.WaitGroup
	for dst := 0; dst < p; dst++ {
		mergeWG.Add(1)
		go func(dst int) {
			defer mergeWG.Done()
			defer func() {
				if rec := recover(); rec != nil {
					mergeErrs[dst] = fmt.Errorf("mpc: server %d inbox merge panicked in round %q: %v", dst, round, rec)
				}
			}()
			for w := range shards {
				received[dst] += shards[w].Sent[dst]
			}
			inboxes[dst] = mergeOutboxes(len(shards), owned, func(w int) *rel.Instance { return shards[w].Outs[dst] })
		}(dst)
	}
	mergeWG.Wait()
	for _, err := range mergeErrs {
		if err != nil {
			return nil, nil, err
		}
	}
	return inboxes, received, nil
}

// mergeOutboxes is mergeShards' inbox merge, the one MergeInbox
// reproduces on frames: it unions frag(w), source w's fragment for one
// destination (nil: none), for w = 0..n−1 in that order. Fragments are
// round-private outboxes, so what only one source ships — the whole
// fragment, or one relation of it — is adopted instead of copied. A
// relation several ship is built once, at the size of their copies
// together: an inbox becomes the server's fragment, which may live as
// long as its owner does, so it must not carry the slack of growing the
// first fragment to fit the others (at least a doubling). Each copy is
// a set; owned says no tuple is in two of them (every shard was routed
// under an Owner and no Keep), so they are appended and the inbox
// builds no table. Otherwise a fact two sources ship lands once.
func mergeOutboxes(n int, owned bool, frag func(w int) *rel.Instance) *rel.Instance {
	var only *rel.Instance
	shipping := 0
	for w := 0; w < n; w++ {
		if out := frag(w); out != nil {
			only = out
			shipping++
		}
	}
	switch shipping {
	case 0:
		return rel.NewInstance()
	case 1:
		return only
	}
	sizes := make(map[string]int)
	for w := 0; w < n; w++ {
		if out := frag(w); out != nil {
			for _, name := range out.RelationNames() {
				sizes[name] += out.Relation(name).Len()
			}
		}
	}
	inbox := rel.NewInstanceSize(len(sizes))
	for w := 0; w < n; w++ {
		out := frag(w)
		if out == nil {
			continue
		}
		for _, name := range out.RelationNames() {
			o := out.Relation(name)
			if o.Len() == sizes[name] {
				inbox.SetRelationAs(name, o) // its only shipper
				continue
			}
			in := inbox.Relation(name)
			if in == nil {
				in = rel.NewRelationSize(name, o.Arity, sizes[name])
				inbox.SetRelationAs(name, in)
			}
			if owned {
				in.UnionDistinct(o)
			} else {
				in.UnionWith(o)
			}
		}
	}
	return inbox
}

// RouteSource runs one source server's communication phase standalone:
// it routes local's facts for round r on a p-server deployment and
// returns the resulting shard. The error semantics are identical to a
// cluster's routing phase — Less-minimal out-of-range fact, recovered
// Router/Keep panics — which is what lets a remote worker process
// reproduce, byte for byte, the routing decisions the simulator makes
// for its server index.
func RouteSource(r Round, p, src int, local *rel.Instance) (sh Shard, err error) {
	if p <= 0 {
		return Shard{}, fmt.Errorf("mpc: RouteSource needs at least one server (got p=%d)", p)
	}
	if src < 0 || src >= p {
		return Shard{}, fmt.Errorf("mpc: RouteSource(%d) on a %d-server deployment", src, p)
	}
	sh.Outs = make([]*rel.Instance, p)
	sh.Sent = make([]int, p)
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("mpc: server %d communication phase panicked in round %q: %v", src, r.Name, rec)
		}
	}()
	if rerr := routeServer(r, r.sets(), p, src, local, &sh, 1); rerr != nil {
		return Shard{}, rerr
	}
	return sh, nil
}

// AdoptResident is one server's step between the exchange and the
// computation phase, standalone like RouteSource: local's Resident
// relations ride into the round input inbox by reference, and facts
// routed into one are a deterministic error.
func AdoptResident(r Round, server int, local, inbox *rel.Instance) error {
	for _, name := range r.Resident {
		if in := inbox.Relation(name); in != nil && in.Len() > 0 {
			return fmt.Errorf("mpc: round %q routed facts into resident relation %q on server %d", r.Name, name, server)
		}
		if rl := local.Relation(name); rl != nil {
			inbox.SetRelation(rl)
		}
	}
	return nil
}

// ComputeServer runs one server's computation phase, standalone like
// RouteSource: a nil Compute is the identity, a nil result an empty
// instance, and a panicking Compute surfaces as the round's error
// instead of killing the process (or worse, being silently lost).
func ComputeServer(r Round, server int, input *rel.Instance) (out *rel.Instance, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("mpc: server %d compute phase panicked in round %q: %v", server, r.Name, rec)
		}
	}()
	if r.Compute == nil {
		return input, nil
	}
	if out = r.Compute(server, input); out == nil {
		out = rel.NewInstance()
	}
	return out, nil
}
