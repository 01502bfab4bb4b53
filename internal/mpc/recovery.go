package mpc

import (
	"fmt"

	"mpclogic/internal/policy"
)

// Checkpointed recovery for the synchronous engine.
//
// The execution model: a round that meets faults routes exactly the
// facts a fault-free round would (drops delay transfers, they do not
// change what is eventually delivered; duplicates are absorbed by the
// idempotent inbox union), and every server's merged round input is
// complete before any computation starts. The computation phase is a
// pure function of (server, input) — Compute's documented contract —
// so a crashed server's partition is recovered by re-executing it from
// a private copy of that input on a recovery worker, and a straggling
// partition can be raced by a speculative copy of the same
// re-execution. Both repairs reproduce the primary's output exactly,
// which is the whole determinism argument: recovery changes WHEN a
// round finishes (virtual ticks, tracked in VirtualMakespan) and HOW
// MUCH extra traffic it costs (ReplicaComm), but never WHAT the round
// computes. The logical metrics — Received, MaxLoad, TotalComm — are
// computed from the merged inboxes before any fault is repaired, so
// they are fault-invariant by construction, and the fault-transparency
// tests pin that byte-for-byte.
//
// All delays live on a virtual clock measured in abstract ticks
// (retryCompletion in faults.go); nothing in this file touches wall
// time.

// Defaults for the fault-tolerance knobs.
const (
	// DefaultRetryBudget bounds how often a single fault site (one
	// transfer, or one server's computation in one round) may fail
	// before the round gives up with a deterministic error.
	DefaultRetryBudget = 3
	// DefaultSpeculateAfter is the virtual tick after which a still-
	// running computation is considered straggling and a speculative
	// copy is launched. A fault-free computation costs 1 tick, so the
	// default only triggers on injected stragglers.
	DefaultSpeculateAfter = 2
)

// ftState is a cluster's fault-tolerance configuration and its
// rolling post-round checkpoint. The zero value is the configuration of
// a cluster built with no fault-tolerance Option: nothing is scheduled,
// speculated or replicated, so no round ever consults the retry budget.
type ftState struct {
	on             bool       // a fault-tolerance Option was given (see WithCheckpoints)
	plan           *FaultPlan // nil: recover-capable but no injected faults
	retryBudget    int
	speculateAfter int // 0 disables speculation
	replicas       int // peers each round checkpoint is replicated to

	// Rolling checkpoint of the last committed round: the servers'
	// instances and the stats recorded so far, snapshotted so later
	// mutation can't corrupt what recovery reloads. Nil until the first
	// round commits.
	ckpt *Checkpoint
}

func (c *Cluster) ensureFT() *ftState {
	if !c.ft.on {
		c.ft = ftState{on: true, retryBudget: DefaultRetryBudget, speculateAfter: DefaultSpeculateAfter}
	}
	return &c.ft
}

// snapshot cuts a checkpoint of the cluster's committed state: a copy,
// since the servers go on mutating and a checkpoint may be restored any
// number of times. commit refreshes the rolling checkpoint (see
// WithCheckpoints) with it, so that one always equals the state after
// the last completed round.
func (c *Cluster) snapshot() *Checkpoint {
	return &Checkpoint{store: policy.NewStableStore(c.servers).Clone(), stats: cloneStats(c.stats)}
}

func cloneStats(stats []RoundStats) []RoundStats {
	out := make([]RoundStats, len(stats))
	for i, s := range stats {
		out[i] = s
		out[i].Received = append([]int(nil), s.Received...)
	}
	return out
}

// WithFaultPlan installs a fault plan, the run's whole fault schedule:
// crash-stop and link faults repaired on the virtual clock, and
// Byzantine routing events the audit quarantines or the receivers
// prove. It implies WithCheckpoints. Plan round indices are absolute:
// round r of the plan fires on the cluster's r-th executed round.
func WithFaultPlan(p *FaultPlan) Option {
	return func(c *Cluster) { c.ensureFT().plan = p }
}

// WithCheckpoints makes the cluster recoverable without injecting any
// faults, and the other fault-tolerance Option, WithFaultPlan, implies
// it. It does not select a different round: every cluster runs the one
// body, deliver, and a fault-free round records the same RoundStats
// with or without it. Exactly two things are keyed on "a
// fault-tolerance Option was given":
//
//   - RouteRound cuts one shard per source instead of one per worker,
//     because a fault plan's link faults and Byzantine events address
//     individual sources; Deliver refuses, as RoutedBehind, a plan that
//     was routed coarser before the cluster turned recoverable (such an
//     Option applied to the live cluster, as WithFaultPlan(p)(c)).
//   - commit keeps a rolling post-round checkpoint, which Checkpoint()
//     hands out and RestoreStore primes. It is a value kept to recover
//     from a fault: after a Compute panicked behind another server's
//     resident fold (see Round) it is the only clean image left. A
//     cluster without the Option snapshots on demand instead.
func WithCheckpoints() Option {
	return func(c *Cluster) { c.ensureFT() }
}

// RecoveryStats aggregates the recovery metrics over rounds.
type RecoveryStats struct {
	Retries          int
	RecoveredServers int
	ReplicaComm      int
	SpeculativeWins  int
	Quarantined      int
}

// RecoveryTotals sums the recovery metrics over all executed rounds.
func (c *Cluster) RecoveryTotals() RecoveryStats {
	var t RecoveryStats
	for _, s := range c.stats {
		t.Retries += s.Retries
		t.RecoveredServers += s.RecoveredServers
		t.ReplicaComm += s.ReplicaComm
		t.SpeculativeWins += s.SpeculativeWins
		t.Quarantined += s.Quarantined
	}
	return t
}

// deliver is the one body of Deliver, the rest of a routed round on
// every cluster: the fault plan's Byzantine events and sampled
// verification on the shards as routed, the plan's drops/dups/
// corruptions charged to the recovery metrics on a virtual clock, the
// transport's Exchange, the logical stats, residents, the plan's
// crashes and stragglers repaired before any Compute runs, the
// computation phase, commit.
// A cluster built with no Option runs it under the zero ftState, whose
// plan is nil and so has no fault sites and no events; chunk, the
// number of sources per shard, is 1 whenever a plan can be installed
// (see WithCheckpoints), which is what lets plans address src→dst links
// by shard index. Every error return precedes commit, which is
// RunRound's atomicity guarantee.
func (c *Cluster) deliver(r Round, shards []Shard, chunk int) (RoundStats, error) {
	ft := &c.ft
	round := len(c.stats) // absolute round index, matches plan indexing

	stats := RoundStats{Name: r.Name}

	// Byzantine routing events fire first: the scheduled corruption is
	// applied to the per-source shards, detected (receiver-side
	// legality + re-execution audit), and either quarantined — the
	// audited honest shard replaces the lie, so everything downstream
	// sees exactly the fault-free shards — or, for a persistent
	// compromise, fails the round with a typed RoutingIntegrityError
	// before any state mutates. See byzantine.go.
	byzEnd, err := c.applyByzantine(round, r, shards, &stats)
	if err != nil {
		return RoundStats{}, err
	}
	commEnd := max(1, byzEnd)
	if c.verifyEvery > 0 {
		// Sampled receiver-side routing verification (see byzantine.go),
		// at the granularity the shards were routed at.
		if err := c.verifyShards(r, shards, chunk); err != nil {
			return RoundStats{}, err
		}
	}

	// Delivery simulation: drops delay a transfer (retransmissions
	// cost ReplicaComm and virtual time), dups add wire traffic the
	// idempotent merge discards, corrupted transfers behave like drops
	// (the receiver detects the damage and discards the frame; a clean
	// retransmission follows). Only src ≠ dst links that actually
	// carry facts are fault sites — self-delivery, including Keep
	// facts, never traverses the network. The communication phase
	// ends when the slowest transfer lands.
	for _, lk := range ft.plan.carryingLinks(shards) {
		n := shards[lk.src].Sent[lk.dst]
		for _, lost := range []struct {
			how   string
			times int
		}{
			{"dropped", ft.plan.drops(round, lk.src, lk.dst)},
			{"corrupted", ft.plan.corrupts(round, lk.src, lk.dst)},
		} {
			if lost.times <= 0 {
				continue
			}
			if lost.times > ft.retryBudget {
				return RoundStats{}, fmt.Errorf(
					"mpc: transfer %d→%d in round %q (round %d) %s %d times, exceeding the retry budget %d",
					lk.src, lk.dst, r.Name, round, lost.how, lost.times, ft.retryBudget)
			}
			stats.Retries += lost.times
			stats.ReplicaComm += lost.times * n
			if t := retryCompletion(lost.times, 1); t > commEnd {
				commEnd = t
			}
		}
		if k := ft.plan.dups(round, lk.src, lk.dst); k > 0 {
			stats.ReplicaComm += k * n
		}
	}

	// The merge does not depend on which faults were charged — same
	// shards, same (dst, src) order — so the logical inboxes and load
	// accounting are byte-identical by construction. A transport that
	// can realize the plan's drops/dups physically at the frame layer
	// is armed first (a nil plan disarms it), so the wire absorbs the
	// same havoc the virtual clock just charged.
	tr := c.tr
	if tr == nil {
		tr = localTransport{}
	}
	if fi, ok := tr.(FrameFaultInjector); ok {
		fi.InjectFrameFaults(round, ft.plan)
	}
	inboxes, received, err := tr.Exchange(r.Name, c.p, shards)
	if err != nil {
		return RoundStats{}, err
	}
	stats.Received = received
	stats.DeltaComm = deltaSent(shards)
	stats.MaxLoad, stats.TotalComm = loadOf(received)

	// Residents join the round input before any repair is planned, so
	// a recovered or speculative re-execution sees the same (full, Δ)
	// view the primary computed on.
	if err := c.adoptResidents(r, inboxes); err != nil {
		return RoundStats{}, err
	}

	// Plan the computation phase per server on the virtual clock. A
	// fault-free computation costs 1 tick; a straggler costs 1+δ. A
	// crash discards the attempt and re-executes from the server's
	// round input with exponential backoff (retryCompletion); past the
	// budget the round fails deterministically. A straggler past the
	// speculation threshold gets a backup copy launched at the
	// threshold, which wins iff it strictly beats the primary — ties
	// keep the primary, the "first deterministic winner". Either repair
	// recomputes the same pure function on the same input, so which
	// copy wins is unobservable in the output.
	//
	// Every repair is decided here, before any Compute runs, so the
	// repaired server's input is still exactly what the exchange
	// delivered: it computes on a private clone taken now — which is
	// what keeps a repair from aliasing live resident state — and a
	// server that needs no repair is not copied at all. Optional peer
	// replication of the round inputs is charged per replica at their
	// own size.
	computeEnd := 0
	for s := 0; s < c.p; s++ {
		size := inboxes[s].Len()
		stats.ReplicaComm += ft.replicas * size
		cost := 1 + ft.plan.straggles(round, s)
		crashes := ft.plan.crashes(round, s)
		end := cost
		switch {
		case crashes > ft.retryBudget:
			return RoundStats{}, fmt.Errorf(
				"mpc: server %d crashed %d times in round %q (round %d), exceeding the retry budget %d",
				s, crashes, r.Name, round, ft.retryBudget)
		case crashes > 0:
			end = retryCompletion(crashes, cost)
			stats.Retries += crashes
			stats.RecoveredServers++
			// Each re-execution refetches the server's round input.
			stats.ReplicaComm += crashes * size
			inboxes[s] = inboxes[s].Clone()
		case ft.speculateAfter > 0 && end > ft.speculateAfter:
			// Speculative copy: launched at the threshold, costs one
			// fault-free tick, and refetches the round input.
			spec := ft.speculateAfter + 1
			stats.ReplicaComm += size
			if spec < end {
				stats.SpeculativeWins++
				end = spec
				inboxes[s] = inboxes[s].Clone()
			}
		}
		if end > computeEnd {
			computeEnd = end
		}
	}
	stats.VirtualMakespan = commEnd + computeEnd

	next, err := c.computePhase(r, inboxes)
	if err != nil {
		return RoundStats{}, err
	}
	c.commit(next, stats)
	return stats, nil
}

// Checkpoint is a durable snapshot of a cluster after its last
// completed round: the servers' instances (in a StableStore, so later
// cluster mutation cannot leak in) plus the stats history needed to
// resume a multi-round program with RunResumable.
type Checkpoint struct {
	store *policy.StableStore
	stats []RoundStats

	// Delta-program counters at the time the checkpoint was cut (both
	// zero when none is installed), letting RestoreDelta re-enter an
	// incremental program exactly where its history left off.
	batches, steps int
}

// Rounds returns how many completed rounds the checkpoint covers.
func (ck *Checkpoint) Rounds() int { return len(ck.stats) }

// Checkpoint returns the cluster's snapshot after its last completed
// round (or of the initial load if no round has run yet). A cluster
// built WithCheckpoints hands out its rolling post-round checkpoint; any
// other takes no checkpoints as it runs, so it snapshots its servers on
// demand — the same image, paid for only when asked.
func (c *Cluster) Checkpoint() *Checkpoint {
	var ck *Checkpoint
	if c.ft.ckpt != nil {
		ck = &Checkpoint{store: c.ft.ckpt.store, stats: cloneStats(c.ft.ckpt.stats)}
	} else {
		ck = c.snapshot()
	}
	if c.delta != nil {
		ck.batches, ck.steps = c.delta.batches, c.delta.steps
	}
	return ck
}

// Restore builds a fresh cluster from a checkpoint: same server
// count, each server holding its checkpointed instance, stats history
// intact so RunResumable skips the completed prefix. Options apply as
// in NewCluster; the restored cluster is always built WithCheckpoints
// (it must keep checkpointing to stay restorable), with a fresh default
// configuration unless options say otherwise — in particular the old
// fault plan is NOT carried over.
//
// The cluster's servers are a copy of ck's fragments, so ck restores
// the same state however often it is used; its rolling checkpoint is
// ck's store itself, which nothing mutates.
func Restore(ck *Checkpoint, opts ...Option) *Cluster {
	c := adopt(ck.store.Clone(), append(opts[:len(opts):len(opts)], WithCheckpoints()))
	c.stats = cloneStats(ck.stats)
	c.ft.ckpt = &Checkpoint{store: ck.store, stats: cloneStats(ck.stats)}
	return c
}

// Store exposes the checkpoint's durable fragment store, to spill to
// disk with policy.EncodeStore. The store is already isolated from
// later cluster mutation (see snapshot), so handing it out is safe; it
// is read again by every Restore, so it must not be mutated.
func (ck *Checkpoint) Store() *policy.StableStore { return ck.store }

// RestoreStore builds a fresh cluster from a bare fragment store — the
// re-entry point for checkpoint images reloaded from disk
// (policy.DecodeStore), where the round-stats history lives with the
// caller rather than inside the image. The cluster adopts the store's
// fragments as its servers' instances, copying nothing, so the store
// is the caller's to hand over once: it must not be read or restored
// again. Options apply as in NewCluster; the restored cluster starts
// with an empty stats history.
func RestoreStore(store *policy.StableStore, opts ...Option) *Cluster {
	c := adopt(store, opts)
	if c.ft.on {
		c.ft.ckpt = c.snapshot()
	}
	return c
}

// adopt builds a cluster whose servers are store's fragments themselves.
func adopt(store *policy.StableStore, opts []Option) *Cluster {
	c := NewCluster(store.NumNodes(), opts...)
	for i := range c.servers {
		c.servers[i] = store.Fragment(policy.Node(i))
	}
	return c
}
