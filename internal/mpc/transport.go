package mpc

import (
	"fmt"

	"mpclogic/internal/rel"
	"mpclogic/internal/sweep"
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
//     matter how the wire reorders frames. Both transports here, and
//     an mpcnet worker, merge through MergeInbox, so they merge
//     identically by construction.
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

// localTransport is the in-process transport: every fragment is held,
// so MergeInbox adopts or unions the outboxes themselves — no copy of a
// relation one source ships, no codec, no wire. The golden determinism
// traces pin its inboxes.
type localTransport struct{}

// NewLocalTransport returns the in-process transport.
func NewLocalTransport() Transport { return localTransport{} }

// Exchange implements Transport: one MergeInbox per destination
// (sweep.Each), every shard held, on phaseWorkers of the facts the
// shards send. A panicking merge is that server's error, not the
// process's.
func (localTransport) Exchange(round string, p int, shards []Shard) ([]*rel.Instance, []int, error) {
	inboxes := make([]*rel.Instance, p)
	received := make([]int, p)
	held := func(w int) *Shard { return &shards[w] }
	sent := 0
	for w := range shards {
		for _, n := range shards[w].Sent {
			sent += n
		}
	}
	if err := sweep.Each(p, phaseWorkers(sent), func(dst int) (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("mpc: server %d inbox merge panicked in round %q: %v", dst, round, rec)
			}
		}()
		inboxes[dst], received[dst], err = MergeInbox(dst, len(shards), held, nil)
		return err
	}); err != nil {
		return nil, nil, err
	}
	return inboxes, received, nil
}

func (localTransport) Close() error { return nil }

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
