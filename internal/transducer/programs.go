package transducer

import (
	"fmt"
	"maps"
	"slices"

	"mpclogic/internal/mono"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// Query is a generic query over instances, the object transducer
// networks compute.
type Query = mono.Query

// Broadcast is the one program behind Section 5's coordination-free
// strategies for M and Mdistinct (Theorems 5.3 and 5.8): broadcast
// what you hold, and output as soon as you know enough. The strategies
// differ only in Output, the rule that says what "enough" is; the
// constructors below name them. The program keeps no volatile state —
// everything it knows is in the node's relational state — so one value
// serves every node, every restart and every explorer branch.
type Broadcast struct {
	// Sends selects the facts transmitted; nil sends all.
	Sends func(rel.Fact) bool
	// Output is the output rule, run after Start and after every
	// delivery that grows the state.
	Output func(ctx *Context)
}

// Factory returns the per-node constructor New expects: b itself.
func (b *Broadcast) Factory() func() Program {
	return func() Program { return b }
}

// ship hands send every data fact of the state that Sends lets out.
func (b *Broadcast) ship(ctx *Context, send func(rel.Fact)) {
	ctx.State().Each(func(f rel.Fact) bool {
		if !ControlFact(f) && (b.Sends == nil || b.Sends(f)) {
			send(f)
		}
		return true
	})
}

// Start implements Program.
func (b *Broadcast) Start(ctx *Context) {
	b.ship(ctx, ctx.Broadcast)
	b.Output(ctx)
}

// OnMessage implements Program.
func (b *Broadcast) OnMessage(ctx *Context, _ policy.Node, f rel.Fact) {
	if ctx.State().Add(f) {
		b.Output(ctx)
	}
}

// OnPeerRestart implements Recoverer: ship the state to the restarted
// node exactly as Start shipped the fragment. Every rule is monotone
// in what it has received (state only grows), so sending everything
// known — not just this node's fragment — is sound and restores the
// peer in one assist transition.
func (b *Broadcast) OnPeerRestart(ctx *Context, κ policy.Node) {
	b.ship(ctx, func(f rel.Fact) { ctx.Send(κ, f) })
}

// Snapshot implements Forkable: stateless, b is its own copy.
func (b *Broadcast) Snapshot() Program { return b }

// Fingerprint implements Forkable: nothing beyond the node's
// relational state, which the explorer hashes separately.
func (b *Broadcast) Fingerprint() string { return "" }

// outputAll emits every fact of answer.
func outputAll(ctx *Context, answer *rel.Instance) {
	answer.Each(func(f rel.Fact) bool {
		ctx.Output(f)
		return true
	})
}

// MonotoneBroadcast is the naive strategy of Example 5.1(1): output
// Q(state) immediately and whenever state grows. For monotone Q every
// run computes Q on every network and distribution, and the program
// is coordination-free (ideal distribution: full replication).
func MonotoneBroadcast(q Query) *Broadcast {
	return EconomicalBroadcast(q, nil)
}

// EconomicalBroadcast refines MonotoneBroadcast in the spirit of
// Ketsman-Neven's optimal broadcasting strategies (Section 6): for a
// full conjunctive query without self-joins, only facts that can
// actually participate in the query — facts unifying with some body
// atom, as matches reports — are transmitted; everything else stays
// local. The query's output is unchanged, the communication drops by
// the selectivity of the atoms.
func EconomicalBroadcast(q Query, matches func(rel.Fact) bool) *Broadcast {
	return &Broadcast{Sends: matches, Output: func(ctx *Context) {
		outputAll(ctx, q(dataFacts(ctx.State())))
	}}
}

// Coordinated evaluates an arbitrary query with an explicit
// coordination protocol in the spirit of Example 5.1(2): every node
// broadcasts its data plus a count of how many facts it contributed;
// a node outputs Q(state) only once it has received every node's
// complete contribution. It requires knowledge of All — it is not
// coordination-free, and Stats.ControlSent counts the control traffic
// it needed.
type Coordinated struct {
	Q Query

	counts   map[policy.Node]int // announced contribution sizes
	received map[policy.Node]int // distinct data facts received per origin
	seen     map[string]bool     // (origin, fact) pairs already counted
	local    []rel.Fact          // this node's own contribution, for recovery re-sends
	done     bool
}

const countRel = reservedPrefix + "count"

// Start implements Program.
func (c *Coordinated) Start(ctx *Context) {
	c.counts = map[policy.Node]int{}
	c.received = map[policy.Node]int{}
	c.seen = map[string]bool{}
	c.local = nil
	ctx.State().Each(func(f rel.Fact) bool {
		ctx.Broadcast(f)
		c.local = append(c.local, f.Clone())
		return true
	})
	n := len(c.local)
	c.counts[ctx.Self] = n
	c.received[ctx.Self] = n
	ctx.Broadcast(rel.NewFact(countRel, rel.Value(n)))
	c.maybeOutput(ctx)
}

// OnMessage implements Program.
func (c *Coordinated) OnMessage(ctx *Context, from policy.Node, f rel.Fact) {
	if f.Rel == countRel {
		c.counts[from] = int(f.Tuple[0])
	} else {
		ctx.State().Add(f)
		// Count each (origin, fact) pair once: the model allows message
		// duplication, so a raw per-delivery counter would cross the
		// announced threshold early and output an unsound answer. Two
		// origins holding the same fact still count separately.
		key := fmt.Sprintf("%d\x00%s", from, f.Key())
		if !c.seen[key] {
			c.seen[key] = true
			c.received[from]++
		}
	}
	c.maybeOutput(ctx)
}

// OnPeerRestart implements Recoverer: re-send exactly this node's
// original contribution plus its count. Sending more (say, the full
// accumulated state) would be unsound — facts relayed from third
// nodes would inflate the restarted node's per-origin tallies.
func (c *Coordinated) OnPeerRestart(ctx *Context, κ policy.Node) {
	for _, f := range c.local {
		ctx.Send(κ, f)
	}
	ctx.Send(κ, rel.NewFact(countRel, rel.Value(len(c.local))))
}

// Snapshot implements Forkable.
func (c *Coordinated) Snapshot() Program {
	cp := *c
	cp.counts, cp.received, cp.seen = maps.Clone(c.counts), maps.Clone(c.received), maps.Clone(c.seen)
	cp.local = slices.Clone(c.local)
	return &cp
}

// Fingerprint implements Forkable: fmt prints maps in key order, so
// the rendering of the volatile protocol state is canonical.
func (c *Coordinated) Fingerprint() string {
	return fmt.Sprint(c.done, c.counts, c.received, c.seen)
}

func (c *Coordinated) maybeOutput(ctx *Context) {
	if c.done {
		return
	}
	if ctx.All == nil {
		// Oblivious networks cannot run this protocol: without All a
		// node can never know every contribution has arrived. Staying
		// silent (rather than guessing) keeps the run sound — and is
		// exactly why A0 = M (Theorem 5.3).
		return
	}
	for _, κ := range ctx.All {
		n, ok := c.counts[κ]
		if !ok || c.received[κ] < n {
			return
		}
	}
	c.done = true
	outputAll(ctx, c.Q(dataFacts(ctx.State())))
}
