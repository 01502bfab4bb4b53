// Package transducer implements relational transducer networks
// (Section 5 of Neven, PODS 2016; Ameloot-Neven-Van den Bussche): a
// set of computing nodes, each running the same program over its
// relational state, communicating asynchronously through broadcasts
// with arbitrary message delay, under an eventually consistent,
// write-only-output semantics.
//
// The runtime models arbitrary delay with a pluggable Scheduler that
// repeatedly delivers one pending message to its destination
// (fairness: the run only ends when every buffer is empty, so no
// message is ignored forever). The default is the seeded random
// scheduler; FIFO, LIFO, per-node starvation, and a greedy adversary
// stress the same quantifier from other directions, faults.go injects
// the model's duplication plus crash-restart, and explore.go
// exhaustively enumerates every schedule of a small network. Outputs
// are write-only: once emitted, a fact cannot be retracted, which is
// exactly the eventual-consistency discipline of the model.
//
// The package also implements the paper's evaluation strategies, and
// Strategies (strategy.go) is the table saying which one Figure 2
// prescribes for which class. Those for M and Mdistinct are one
// program, Broadcast, under three output rules (Example 5.1(1),
// Example 5.4, Theorem 5.8); the domain-guided strategy for Mdisjoint
// (Theorem 5.12) and the explicit coordination protocol for arbitrary
// queries (Example 5.1(2)) keep volatile state of their own.
package transducer

import (
	"fmt"
	"reflect"

	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// Program is the behaviour every node runs. Start is the node's first
// transition (before any delivery); OnMessage is one transition
// consuming one message. Programs interact with the node through the
// Context and must be deterministic functions of (state, input).
type Program interface {
	Start(ctx *Context)
	OnMessage(ctx *Context, from policy.Node, f rel.Fact)
}

// Context is a node's view of itself during a transition.
type Context struct {
	Self policy.Node
	// All lists the network's nodes, or nil when the network is
	// oblivious (the classes A0/A1/A2 have no access to All).
	All []policy.Node

	net   *Network
	state *rel.Instance
}

// State returns the node's relational state (local database plus
// everything received and any auxiliary relations the program keeps).
func (c *Context) State() *rel.Instance { return c.state }

// Output emits a fact to the node's write-only output relation.
func (c *Context) Output(f rel.Fact) {
	c.net.outputs[c.Self].Add(f)
}

// Broadcast sends f to every other node.
func (c *Context) Broadcast(f rel.Fact) {
	for i := 0; i < c.net.p; i++ {
		if policy.Node(i) != c.Self {
			c.net.enqueue(c.Self, policy.Node(i), f)
		}
	}
}

// Send sends f to one node (direct messaging; the paper notes this is
// simulable by tagged broadcast).
func (c *Context) Send(to policy.Node, f rel.Fact) {
	c.net.enqueue(c.Self, to, f)
}

// ResponsibleFor asks the distribution policy whether this node is
// responsible for f. Faithful to the model, the query is only
// permitted for facts over the node's local active domain; violating
// that is a programming error and panics.
func (c *Context) ResponsibleFor(f rel.Fact) bool {
	if c.net.pol == nil {
		panic("transducer: network is not policy-aware")
	}
	adom := c.state.ADom()
	for v := range f.ADom() {
		if !adom.Contains(v) {
			panic(fmt.Sprintf("transducer: policy queried outside local active domain (value %d)", v))
		}
	}
	return policy.Responsible(c.net.pol, c.Self, f)
}

// DomainNodes returns the nodes assigned to value v under a
// domain-guided policy; it panics for other policies or for values
// outside the local active domain.
func (c *Context) DomainNodes(v rel.Value) []policy.Node {
	dg, ok := c.net.pol.(*policy.DomainGuided)
	if !ok {
		panic("transducer: network policy is not domain-guided")
	}
	if !c.state.ADom().Contains(v) {
		panic("transducer: domain query outside local active domain")
	}
	return dg.ValueNodes(v)
}

// Message is an in-flight fact, visible to Schedulers picking the
// next delivery.
type Message struct {
	From, To policy.Node
	Fact     rel.Fact
}

// Stats summarizes a run. Control messages are protocol facts
// (relation names starting with the reserved prefix) as opposed to
// data facts; their share quantifies how much a strategy coordinates —
// the metric Section 6 of the paper asks for.
//
// Accounting invariants, tested in stats_test.go: Delivered ≤ Sent
// always (silent runs read nothing; duplicated copies count as Sent),
// and Steps == p + Delivered + Crashes + Assists (every transition is
// a Start, a delivery, a restart Start, or a recovery assist).
type Stats struct {
	Sent        int // messages enqueued (including injected duplicates)
	ControlSent int // of which control-plane (non-data) facts
	Delivered   int // messages read from buffers
	Steps       int // transitions executed (Start + deliveries + restarts + assists)
	Duplicated  int // extra copies injected by the duplication fault
	Bursts      int // delay bursts begun
	Crashes     int // crash-restart events fired
	Assists     int // peer recovery-assist transitions
}

// Network is a relational transducer network instance.
type Network struct {
	p        int
	mk       func() Program // rebuilds a node's program after a crash
	programs []Program
	ctxs     []*Context
	outputs  []*rel.Instance
	buffers  [][]Message
	sched    Scheduler
	faults   *faultState
	store    *policy.StableStore // durable per-node fragments for crash reload
	pol      policy.Policy
	aware    bool // nodes see All
	silent   bool // messages are never delivered (coordination-freeness probe)
	stats    Stats
}

// Option configures a network.
type Option func(*Network)

// WithPolicy makes nodes policy-aware (classes F1/F2).
func WithPolicy(p policy.Policy) Option {
	return func(n *Network) { n.pol = p }
}

// WithSeed seeds the default delay-simulating random scheduler.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.sched = NewRandom(seed) }
}

// WithScheduler installs a custom message scheduler (see scheduler.go
// for the matrix of built-in ones).
func WithScheduler(s Scheduler) Option {
	return func(n *Network) { n.sched = s }
}

// New builds a network of p nodes, each running the program returned
// by mk.
func New(p int, mk func() Program, opts ...Option) *Network {
	n := &Network{
		p:        p,
		mk:       mk,
		programs: make([]Program, p),
		ctxs:     make([]*Context, p),
		outputs:  make([]*rel.Instance, p),
		buffers:  make([][]Message, p),
		sched:    NewRandom(1),
		aware:    true,
	}
	for i := 0; i < p; i++ {
		n.programs[i] = mk()
		n.outputs[i] = rel.NewInstance()
		n.ctxs[i] = &Context{Self: policy.Node(i), net: n, state: rel.NewInstance()}
	}
	for _, o := range opts {
		o(n)
	}
	if n.aware {
		all := policy.AllNodes(p)
		for _, c := range n.ctxs {
			c.All = all
		}
	}
	return n
}

// LoadParts installs an explicit horizontal distribution: parts[i]
// becomes node i's local database. The union of the parts is the
// global instance. On a policy-aware network (WithPolicy) the parts
// are verified against the declared placement first: a fact loaded
// onto a node the policy never makes responsible for it would poison
// every Responsible/loc-inst-based strategy decision downstream, so a
// nonconforming distribution is rejected with the Fact.Less-minimal
// violation instead of silently accepted.
func (n *Network) LoadParts(parts []*rel.Instance) error {
	if len(parts) != n.p {
		return fmt.Errorf("transducer: %d parts for %d nodes", len(parts), n.p)
	}
	if n.pol != nil {
		if vs := policy.Verify(n.pol, parts); len(vs) > 0 {
			return fmt.Errorf("transducer: loaded distribution violates the declared policy: %w", vs[0])
		}
	}
	for i, part := range parts {
		n.ctxs[i].state = part.Clone()
	}
	n.store = policy.NewStableStore(parts).Clone()
	return nil
}

// LoadPolicy distributes the global instance according to a
// distribution policy P^H (every node gets loc-inst(κ)). A network
// that declares a policy (WithPolicy) answers its nodes' queries from
// it, so loading by any other is refused with a *PolicyMismatchError
// — the placement check alone could pass by luck.
func (n *Network) LoadPolicy(i *rel.Instance, p policy.Policy) error {
	if p.NumNodes() != n.p {
		return fmt.Errorf("transducer: policy has %d nodes, network %d", p.NumNodes(), n.p)
	}
	if n.pol != nil && !reflect.DeepEqual(n.pol, p) {
		return &PolicyMismatchError{Declared: n.pol, Loaded: p}
	}
	return n.LoadParts(policy.Distribute(p, i))
}

// PolicyMismatchError reports a LoadPolicy by a policy other than the
// one the network declares to its nodes.
type PolicyMismatchError struct {
	Declared, Loaded policy.Policy
}

func (e *PolicyMismatchError) Error() string {
	return fmt.Sprintf("transducer: network declares policy %T %+v but is loaded by %T %+v", e.Declared, e.Declared, e.Loaded, e.Loaded)
}

// Load builds a network of pol.NumNodes() nodes running mk, declares
// pol to them and distributes g by it — the one call in which a
// policy is named, so what nodes are told and what they hold cannot
// disagree. A Strategy row supplies mk and pol.
func Load(mk func() Program, pol policy.Policy, g *rel.Instance, opts ...Option) (*Network, error) {
	n := New(pol.NumNodes(), mk, opts...)
	n.pol = pol
	return n, n.LoadPolicy(g, pol)
}

func (n *Network) enqueue(from, to policy.Node, f rel.Fact) {
	copies := 1
	if fs := n.faults; fs != nil && fs.dupBound > 0 {
		extra := fs.dupRng.Intn(fs.dupBound + 1)
		copies += extra
		n.stats.Duplicated += extra
	}
	control := ControlFact(f)
	for c := 0; c < copies; c++ {
		n.stats.Sent++
		if control {
			n.stats.ControlSent++
		}
		if n.silent {
			continue // sent but never read
		}
		n.buffers[to] = append(n.buffers[to], Message{From: from, To: to, Fact: f.Clone()})
	}
}

// MaxSteps bounds a run; programs that never quiesce are reported as
// errors rather than looping forever.
const MaxSteps = 2_000_000

// Run executes the network to quiescence: every node takes its Start
// transition (in the scheduler's start order), then pending messages
// are delivered one at a time as the scheduler picks them until all
// buffers drain, with any configured faults injected along the way.
// It returns the run statistics.
func (n *Network) Run() (Stats, error) {
	n.start()
	for {
		n.maybeCrash(false)
		view, any := n.deliveryView()
		if !any {
			// Quiescent. Fire crash events whose trigger was never
			// reached — a restart may send recovery traffic, so loop
			// back rather than return.
			n.maybeCrash(true)
			if _, again := n.deliveryView(); !again {
				return n.stats, nil
			}
			continue
		}
		if n.stats.Steps > MaxSteps {
			return n.stats, fmt.Errorf("transducer: no quiescence after %d steps", MaxSteps)
		}
		ni, mi := n.sched.Next(view)
		b := n.buffers[ni]
		if ni < 0 || ni >= n.p || mi < 0 || mi >= len(b) {
			panic(fmt.Sprintf("transducer: scheduler picked invalid delivery (node %d, pos %d)", ni, mi))
		}
		m := b[mi]
		if n.sched.OrderPreserving() {
			n.buffers[ni] = append(b[:mi], b[mi+1:]...)
		} else {
			// Swap-removal: the historical mutation the seeded-random
			// scheduler's bit-compatibility depends on.
			b[mi] = b[len(b)-1]
			n.buffers[ni] = b[:len(b)-1]
		}

		n.stats.Delivered++
		n.stats.Steps++
		n.programs[ni].OnMessage(n.ctxs[ni], m.From, m.Fact)
	}
}

// RunSilent executes only the Start transitions and discards every
// sent message — the "no input messages are ever read" regime of the
// coordination-freeness definition. The network must already hold the
// ideal distribution.
func (n *Network) RunSilent() Stats {
	n.silent = true
	n.start()
	n.silent = false
	return n.stats
}

func (n *Network) start() {
	order := n.sched.StartOrder(n.p)
	for _, i := range order {
		n.stats.Steps++
		n.programs[i].Start(n.ctxs[i])
	}
}

// Output returns the union of all nodes' output relations.
func (n *Network) Output() *rel.Instance {
	out := rel.NewInstance()
	for _, o := range n.outputs {
		out.AddAll(o)
	}
	return out
}

// reservedPrefix marks control-plane relations; workloads must not use
// it.
const reservedPrefix = "⟂"

// ControlFact reports whether f is a protocol control fact rather than
// data.
func ControlFact(f rel.Fact) bool {
	return len(f.Rel) >= len(reservedPrefix) && f.Rel[:len(reservedPrefix)] == reservedPrefix
}

// dataFacts filters control facts out of an instance.
func dataFacts(i *rel.Instance) *rel.Instance {
	return i.Filter(func(f rel.Fact) bool { return !ControlFact(f) })
}
