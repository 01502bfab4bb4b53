package transducer

import (
	"math/rand"

	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// This file implements the fault model the paper's asynchronous
// networks live in. Ameloot-Neven-Van den Bussche's communication
// semantics allows messages to be arbitrarily delayed *and
// duplicated*; production systems additionally crash and restart.
// Each fault is an Option with its own explicitly seeded generator
// (independent of the scheduler's, so enabling a fault never perturbs
// which schedule the scheduler would have chosen) and full Stats
// accounting.
//
// Crash-restart semantics follow the standard split into durable and
// volatile state: the node's local database (its horizontal fragment,
// held in a policy.StableStore) survives and is reloaded, while the
// transducer's auxiliary state — everything received, every protocol
// map — is lost. After reloading, the node re-runs its Start
// transition, and every peer implementing Recoverer takes one
// recovery-assist transition targeted at the restarted node. Messages
// already in flight are the network's, not the node's, and survive.

// faultState carries the configured fault injectors of one network.
type faultState struct {
	// Bounded duplication: each enqueued message is followed by up to
	// dupBound extra copies, drawn from dupRng.
	dupBound int
	dupRng   *rand.Rand

	// Delay bursts: every burstEvery deliveries, one node (drawn from
	// burstRng) has its inbound deliveries frozen for the next
	// burstLen scheduling decisions.
	burstEvery int
	burstLen   int
	burstRng   *rand.Rand
	nextBurst  int
	frozen     int
	frozenLeft int

	// Crash-restart events, fired in order as Delivered passes each
	// trigger; events whose trigger is never reached fire at
	// quiescence so a configured crash always happens.
	crashes []crashEvent
}

// crashEvent is one crash-restart: a single node, or — the correlated
// case a shared rack or failure domain produces — a whole group that
// fails as a unit.
type crashEvent struct {
	nodes []policy.Node
	after int // fire once Stats.Delivered reaches this
	done  bool
}

func (n *Network) faultsLazy() *faultState {
	if n.faults == nil {
		n.faults = &faultState{frozen: -1}
	}
	return n.faults
}

// WithDuplication enables bounded message duplication: every sent
// message is enqueued 1+k times with k drawn uniformly from
// [0, bound], using a dedicated generator seeded with seed. The model
// explicitly permits duplication, so a correct strategy's output must
// not change; Stats.Duplicated counts the injected copies.
func WithDuplication(bound int, seed int64) Option {
	return func(n *Network) {
		f := n.faultsLazy()
		f.dupBound = bound
		f.dupRng = rand.New(rand.NewSource(seed))
	}
}

// WithDelayBursts freezes inbound delivery to one random node for
// length scheduling decisions, every every-th delivery — a burst of
// the "arbitrary delay" the model allows, concentrated on one node.
// Liveness is preserved: a frozen node thaws early when it holds the
// only pending messages. Stats.Bursts counts the bursts begun.
func WithDelayBursts(every, length int, seed int64) Option {
	return func(n *Network) {
		f := n.faultsLazy()
		f.burstEvery = every
		f.burstLen = length
		f.burstRng = rand.New(rand.NewSource(seed))
		f.nextBurst = every
		f.frozen = -1
	}
}

// WithCrashRestart schedules a crash-restart of node κ once the run
// has delivered afterDeliveries messages (or at quiescence, if the
// run drains earlier). The node reloads its durable local database
// from the network's stable store, loses all volatile state, and
// re-runs Start; peers implementing Recoverer assist. The option may
// be given multiple times to schedule several crashes.
func WithCrashRestart(κ policy.Node, afterDeliveries int) Option {
	return func(n *Network) {
		f := n.faultsLazy()
		f.crashes = append(f.crashes, crashEvent{nodes: []policy.Node{κ}, after: afterDeliveries})
	}
}

// Recoverer is implemented by programs that assist a crashed peer
// after its restart: OnPeerRestart runs as one transition on a live
// node and should re-send (targeted, via ctx.Send) whatever the
// restarted node needs to rebuild what it lost — typically the
// sender's own contribution, exactly as Start first announced it.
// Programs without a Recoverer still run under crash-restart, but the
// restarted node then recovers only what the strategy's own message
// flow re-delivers.
type Recoverer interface {
	OnPeerRestart(ctx *Context, κ policy.Node)
}

// maybeCrash fires every due crash event. force fires the not-yet-due
// ones too (used at quiescence).
func (n *Network) maybeCrash(force bool) {
	if n.faults == nil {
		return
	}
	for i := range n.faults.crashes {
		ev := &n.faults.crashes[i]
		if ev.done || (!force && n.stats.Delivered < ev.after) {
			continue
		}
		ev.done = true
		n.crashRestart(ev.nodes)
	}
}

// crashRestart models fail-stop + recovery of a node group (usually a
// singleton): volatile state (program fields, received facts, protocol
// maps) is lost, the durable local database is reloaded, outputs —
// write-only and already published — persist, and in-flight messages
// stay queued. All members fail before any restarts, so a correlated
// group never self-assists: each member re-runs Start from its durable
// fragment alone, and recovery assists come only from peers outside
// the group.
func (n *Network) crashRestart(group []policy.Node) {
	in := make(map[policy.Node]bool, len(group))
	for _, κ := range group {
		in[κ] = true
		n.stats.Crashes++
		n.programs[κ] = n.mk()
		n.ctxs[κ].state = n.reload(κ)
	}
	for _, κ := range group {
		n.stats.Steps++
		n.programs[κ].Start(n.ctxs[κ])
	}
	for _, κ := range group {
		for i := 0; i < n.p; i++ {
			if in[policy.Node(i)] {
				continue
			}
			if r, ok := n.programs[i].(Recoverer); ok {
				n.stats.Assists++
				n.stats.Steps++
				r.OnPeerRestart(n.ctxs[i], κ)
			}
		}
	}
}

// reload returns a fresh copy of node κ's durable local database: the
// node mutates it, and the store must hand out the pristine fragment
// again at its next crash.
func (n *Network) reload(κ policy.Node) *rel.Instance {
	if n.store == nil {
		return rel.NewInstance()
	}
	return n.store.Fragment(κ).Clone()
}

// deliveryView returns the buffers the scheduler may pick from,
// hiding a burst-frozen node, and whether any message is pending at
// all. The returned view aliases the real buffers unless a freeze is
// active, so the fault-free path allocates nothing.
func (n *Network) deliveryView() ([][]Message, bool) {
	any := false
	for _, b := range n.buffers {
		if len(b) > 0 {
			any = true
			break
		}
	}
	if !any {
		return nil, false
	}
	f := n.faults
	if f == nil || f.burstLen == 0 {
		return n.buffers, true
	}
	if f.frozenLeft == 0 && n.stats.Delivered >= f.nextBurst {
		f.frozen = f.burstRng.Intn(n.p)
		f.frozenLeft = f.burstLen
		f.nextBurst = n.stats.Delivered + f.burstEvery
		n.stats.Bursts++
	}
	if f.frozenLeft == 0 {
		return n.buffers, true
	}
	othersPending := false
	for i, b := range n.buffers {
		if i != f.frozen && len(b) > 0 {
			othersPending = true
			break
		}
	}
	if !othersPending {
		// The frozen node holds the only pending messages: thaw early,
		// or fairness (eventual delivery) would be violated.
		f.frozenLeft = 0
		return n.buffers, true
	}
	f.frozenLeft--
	view := make([][]Message, n.p)
	copy(view, n.buffers)
	view[f.frozen] = nil
	return view, true
}
