// Package mpc simulates the Massively Parallel Communication model of
// Koutris and Suciu (Section 3 of Neven, PODS 2016): p servers
// connected by a complete network compute in synchronized rounds, each
// round consisting of a communication phase (every server routes its
// local facts to destination servers) followed by a computation phase
// (pure local computation).
//
// The simulator's job is cost accounting, the model's primary object
// of study: the load of a server in a round is the number of facts it
// receives, and the interesting quantity is the maximum load across
// servers, which theory bounds by m/p^{1/τ*} for one-round algorithms
// on skew-free data. Local computation is unbounded in the model, so
// the simulator runs it natively (and concurrently).
//
// A round runs in two steps that a caller may take apart. RouteRound
// is the communication phase up to the network: every fact is routed
// into a round-private outbox, the exact per-server loads are known,
// and the cluster is untouched. Deliver is everything after — fault
// charging, the transport's Exchange, the computation phase, commit.
// RunRound is RouteRound then Deliver and nothing else, and Deliver has
// one body (deliver, in recovery.go) that every cluster runs, so there
// is one round implementation. The seam exists for callers that price a
// round before paying for it: the loads of a RoutedRound are the loads
// the round will record, and a plan that is dropped instead of
// delivered never happened.
//
// The model assumes servers that never fail; real MPP engines do not
// get that luxury. A cluster can therefore be configured with a
// fault-tolerance layer (see faults.go and recovery.go): a seeded
// FaultPlan injects server crashes, dropped or duplicated transfers,
// and straggler delays on a deterministic virtual clock, and the
// engine recovers via checkpointed re-execution. The headline
// invariant is fault transparency — the query output and the logical
// round metrics (Received, MaxLoad, TotalComm) of a recovered run are
// byte-identical to the fault-free run, while the recovery costs are
// accounted separately (Retries, RecoveredServers, ReplicaComm,
// SpeculativeWins, Quarantined). Beyond crash-stop, the same plan can
// schedule Byzantine routing — a server that mis-routes, forges, or
// withholds facts — which the engine detects by receiver-side verification against the round's placement
// policy plus a deterministic re-execution audit, quarantining
// transient liars and failing persistent ones with a typed
// RoutingIntegrityError (see byzantine.go). All of it runs in the one
// round body: options change what a round survives and how its shards
// are cut, never which steps it takes. A cluster built with no Option
// runs the same steps under a configuration that schedules nothing, so
// a fault-free round records the same RoundStats, field for field,
// under every option set.
package mpc

import (
	"fmt"
	"runtime"
	"slices"
	"strings"

	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
	"mpclogic/internal/sweep"
)

// Router decides the destination servers of a fact during a
// communication phase: the round's reshuffle, which is a distribution
// policy (Section 4.1). Every policy.Policy is a Router as it stands,
// and the routers of this package and hypercube's grids are policies —
// routers that know their width, which package pc can be asked about.
// Destinations out of range are an error.
//
// The communication phase fans out over source servers, so Route is
// called concurrently from multiple goroutines and implementations
// must be safe for concurrent use; its result is read-only (a router
// may hand every fact the same list). Every router in this package (and
// package hypercube) is stateless and therefore trivially safe.
//
// The phase walks a source relation by relation. A router that is also
// a RelationRouter is asked once per relation for that relation's
// route and then only about tuples; any other is asked Route of each
// fact, through one adapter closure, so there is one routing loop.
type Router interface {
	Route(f rel.Fact) []int
}

// RelationRouter is a Router that can resolve its decision for a whole
// relation at once — what a router that matches a fact's relation name
// against its rules (hypercube's grids) would otherwise redo for every
// fact. RouteRelation(name, arity) must return a function whose result
// on t equals Route(Fact{name, t}) slice for slice, for every tuple t of
// that arity; like Route, it and the function it returns are called
// concurrently, and the results are read-only.
type RelationRouter interface {
	Router
	RouteRelation(name string, arity int) func(rel.Tuple) []int
}

// relationRoute returns r's route for the tuples of relation name at
// the given arity: RouteRelation's when r has one, else Route's.
func relationRoute(r Router, name string, arity int) func(rel.Tuple) []int {
	if rr, ok := r.(RelationRouter); ok {
		return rr.RouteRelation(name, arity)
	}
	return func(t rel.Tuple) []int { return r.Route(rel.Fact{Rel: name, Tuple: t}) }
}

// RouterFunc adapts a function to the Router interface.
type RouterFunc func(rel.Fact) []int

// Route implements Router.
func (r RouterFunc) Route(f rel.Fact) []int { return r(f) }

// Compute is a local computation phase: it maps a server's received
// data to the server's new local data. It must not retain or mutate
// the input instance's relations beyond the returned instance, and it
// must be a pure function of (server, local) — the recovery layer
// relies on re-execution producing identical results.
type Compute func(server int, local *rel.Instance) *rel.Instance

// Round couples a communication phase with a computation phase.
// Facts for which Keep returns true stay at their current server and
// are not counted as communication (local data needs no network hop);
// all other facts are shipped according to Route. Like Route, Keep is
// called concurrently and must be safe for concurrent use.
//
// Resident names relations whose facts bypass the communication phase
// entirely: they are neither routed, kept (copied), nor dropped — each
// server's resident relations are carried by reference into its round
// input, so a round's cost is independent of the resident state size.
// A resident round's Compute typically folds shipped Δ fragments into
// the residents (see rel.Instance.FoldDelta) and must return an
// instance that still contains them — usually its own input, which is
// round-private and safe to mutate. Routing facts into a relation
// named in Resident is a deterministic error. One caveat: because
// residents are shared with the committed state during the round, a
// Compute that PANICS after another server's fold already mutated a
// resident breaks RunRound's atomicity-on-failure guarantee for that
// resident state; every engine-detected error (bad routes, exhausted
// retry budgets) still precedes any fold and stays atomic.
//
// DeltaRels names the relations this round ships as Δ fragments; their
// routed deliveries are tallied in RoundStats.DeltaComm. The (full, Δ)
// pairing of semi-naive evaluation is expressed as a Resident entry
// (the full copy that stays put) plus a DeltaRels entry (the fragment
// on the wire). MaxLoad/TotalComm remain the logical metrics over all
// shipped facts; DeltaComm is the sub-series the incremental engine
// optimizes.
//
// Owner is for rounds that start from a replicated layout — the
// fragments a HyperCube round left behind — where a fact sits on
// several servers and must still be shipped once. It is resolved once
// per source relation, like a RelationRouter's route: when Owner is
// non-nil, a source about to route relation name at arity a asks
// Owner(name, a) for the relation's owner function. A nil function says
// every copy of the relation has a single holder, which owns it, so a
// layout's singly placed relations cost no call per fact. Otherwise the
// source asks Route only about the copies f it owns: those whose owner
// function returns its own index, or a negative number, which says f
// has a single holder and that holder owns it. Its other copies are not
// routed by that source at all; Keep is consulted first and is
// unaffected. Write owner(f) for the owner function of f's relation
// applied to f's tuple, and −1 when it is nil. The law: on a layout that
// is the image of a placement ρ (server s holds f iff s ∈ ρ(f)), a round
// whose owner(f) picks one server of ρ(f) — min ρ(f), say — routes every
// distinct fact exactly once, so it records the same Received, MaxLoad
// and TotalComm, and delivers the same inboxes as sets, as the same
// round run from any duplicate-free layout of the same facts: loads are
// sums over destinations, a function of the fact set and Route alone,
// whatever server a fact is read from. An owner naming a server that
// does not hold the fact loses it — nobody routes it — which a caller
// that knows its fact count sees in RoutedRound.Routed. Like Route,
// Owner and the functions it returns are called concurrently and must
// be safe for concurrent use.
//
// The law is also what keeps inboxes sets under an Owner and no Keep:
// outboxes and inboxes then append the facts routed to them without a
// membership check (see routeServer), since one source ships each. So
// "negative means a single holder" must be true: a fact two holders
// both claim is routed twice and lands twice, where the first lookup in
// that inbox panics on it. Routed counts it twice too, which is the
// check a caller that knows its fact count makes before delivering, as
// the serving daemon does (Routed against the session's facts).
type Round struct {
	Name      string
	Route     Router
	Compute   Compute
	Keep      func(rel.Fact) bool
	Owner     func(name string, arity int) func(rel.Tuple) int
	Resident  []string
	DeltaRels []string
}

// roundSets is a Round's membership view of its Resident and DeltaRels
// declarations, precomputed once per executed round.
type roundSets struct {
	resident map[string]bool
	delta    map[string]bool
}

func (r Round) sets() roundSets {
	var s roundSets
	if len(r.Resident) > 0 {
		s.resident = make(map[string]bool, len(r.Resident))
		for _, name := range r.Resident {
			s.resident[name] = true
		}
	}
	if len(r.DeltaRels) > 0 {
		s.delta = make(map[string]bool, len(r.DeltaRels))
		for _, name := range r.DeltaRels {
			s.delta[name] = true
		}
	}
	return s
}

// RoundStats records the cost of one executed round, split into two
// layers. The logical metrics (Received, MaxLoad, TotalComm) describe
// the round the algorithm asked for and are invariant under any
// recovered fault plan — they are the quantities the MPC load bounds
// constrain. The recovery metrics (Retries, RecoveredServers,
// ReplicaComm, SpeculativeWins, Quarantined) describe what fault
// tolerance cost on top; they are zero in a round no fault fired in,
// whatever Options the cluster was built with.
// VirtualMakespan is when the round ended on the virtual clock: 2 in a
// fault-free round (one communication tick, one computation tick),
// later when repairs ran.
type RoundStats struct {
	Name      string
	Received  []int // facts received per server (load)
	MaxLoad   int   // max over Received
	TotalComm int   // total facts sent = Σ Received
	DeltaComm int   // the subset of TotalComm carried by DeltaRels relations

	// Recovery accounting (see recovery.go).
	Retries          int // re-sent transfers + re-executed computations
	RecoveredServers int // servers whose partition was re-executed after a crash
	ReplicaComm      int // non-logical facts on the wire: retransmissions, duplicates, checkpoint traffic
	SpeculativeWins  int // straggler partitions finished first by a speculative copy
	Quarantined      int // Byzantine sources whose shard was replaced by an audited re-execution
	VirtualMakespan  int // completion tick of the round on the virtual clock
}

// String renders the stats compactly. Recovery metrics appear only
// when any of them is nonzero, so fault-free output is unchanged.
func (s RoundStats) String() string {
	base := fmt.Sprintf("round %s: max load %d, total communication %d", s.Name, s.MaxLoad, s.TotalComm)
	if s.DeltaComm != 0 {
		base += fmt.Sprintf(", delta communication %d", s.DeltaComm)
	}
	if s.Retries != 0 || s.RecoveredServers != 0 || s.ReplicaComm != 0 || s.SpeculativeWins != 0 || s.Quarantined != 0 {
		quarantined := ""
		if s.Quarantined != 0 {
			// Rendered only when a Byzantine source was actually healed,
			// so pre-Byzantine recovery renderings are unchanged.
			quarantined = fmt.Sprintf(", quarantined %d", s.Quarantined)
		}
		base += fmt.Sprintf(" [recovery: retries %d, recovered %d, replica comm %d, speculative wins %d%s, makespan %d]",
			s.Retries, s.RecoveredServers, s.ReplicaComm, s.SpeculativeWins, quarantined, s.VirtualMakespan)
	}
	return base
}

// LogicalString renders only the logical, fault-invariant metrics of
// the round. Two executions of the same program whose LogicalString
// traces differ violate fault transparency.
func (s RoundStats) LogicalString() string {
	base := fmt.Sprintf("round %s: received %v, max load %d, total communication %d",
		s.Name, s.Received, s.MaxLoad, s.TotalComm)
	if s.DeltaComm != 0 {
		// DeltaComm is computed from the same shards as TotalComm, so
		// it is logical and fault-invariant; rendering it only when
		// nonzero keeps pre-delta traces byte-identical.
		base += fmt.Sprintf(", delta communication %d", s.DeltaComm)
	}
	return base
}

// Cluster is a simulated MPC deployment.
type Cluster struct {
	p           int
	servers     []*rel.Instance
	stats       []RoundStats
	tr          Transport   // nil: in-process Local transport (see transport.go)
	ft          ftState     // zero: no fault-tolerance Option was given (see recovery.go)
	delta       *deltaState // nil: no incremental program installed (see delta.go)
	verifyEvery int         // sampled routing verification stride; 0: off (see byzantine.go)
}

// Option configures a cluster at construction (see faults.go for the
// fault-tolerance options).
type Option func(*Cluster)

// NewCluster returns a cluster of p servers with empty local data.
func NewCluster(p int, opts ...Option) *Cluster {
	if p <= 0 {
		panic(fmt.Sprintf("mpc: cluster needs at least one server (got p=%d)", p))
	}
	c := &Cluster{p: p, servers: make([]*rel.Instance, p)}
	for i := range c.servers {
		c.servers[i] = rel.NewInstance()
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Successor returns a cluster that starts where c stands — the same
// width, transport and options, server i holding c's fragment i by
// reference, nothing copied — with an empty round history (so a fault
// plan, indexed by absolute round, starts over) and no delta program.
// A round never mutates the instances it reads (Resident relations
// aside, see Round): it replaces them in the cluster that ran it. So
// rounds on the successor leave c as it was, a plan routed there and
// dropped has done nothing anywhere, and an owner that swaps in the
// successor once a round commits holds one round of history however
// long it lives.
func (c *Cluster) Successor() *Cluster {
	n := &Cluster{p: c.p, servers: append([]*rel.Instance(nil), c.servers...), tr: c.tr, ft: c.ft, verifyEvery: c.verifyEvery}
	if n.ft.on {
		n.ft.ckpt = n.snapshot()
	}
	return n
}

// P returns the number of servers.
func (c *Cluster) P() int { return c.p }

// Server returns server i's current local instance (live reference).
func (c *Cluster) Server(i int) *rel.Instance {
	if i < 0 || i >= c.p {
		panic(fmt.Sprintf("mpc: Server(%d) on a %d-server cluster", i, c.p))
	}
	return c.servers[i]
}

// Stats returns the per-round statistics recorded so far.
func (c *Cluster) Stats() []RoundStats { return c.stats }

// LastStats returns the statistics of the most recent round.
func (c *Cluster) LastStats() RoundStats {
	if len(c.stats) == 0 {
		return RoundStats{}
	}
	return c.stats[len(c.stats)-1]
}

// MaxLoad returns the maximum per-round max load over the whole
// execution — the load measure of the MPC model.
func (c *Cluster) MaxLoad() int {
	max := 0
	for _, s := range c.stats {
		if s.MaxLoad > max {
			max = s.MaxLoad
		}
	}
	return max
}

// TotalComm returns total communication over all rounds.
func (c *Cluster) TotalComm() int {
	n := 0
	for _, s := range c.stats {
		n += s.TotalComm
	}
	return n
}

// DeltaCommTotal returns total Δ communication over all rounds — the
// subset of TotalComm that delta rounds actually shipped.
func (c *Cluster) DeltaCommTotal() int {
	n := 0
	for _, s := range c.stats {
		n += s.DeltaComm
	}
	return n
}

// Rounds returns how many rounds have been executed.
func (c *Cluster) Rounds() int { return len(c.stats) }

// LogicalTrace renders the logical metrics of every executed round,
// one per line — the byte string the fault-transparency invariant
// compares across fault plans.
func (c *Cluster) LogicalTrace() string {
	var b strings.Builder
	for _, s := range c.stats {
		b.WriteString(s.LogicalString())
		b.WriteByte('\n')
	}
	return b.String()
}

// LoadRoundRobin installs the initial partition of the input: each
// server receives ~1/p of the data, mirroring the model's assumption
// that the input starts out evenly spread with no particular scheme.
// Initial placement is not counted as communication.
func (c *Cluster) LoadRoundRobin(i *rel.Instance) { DealRoundRobin(i, c.servers, 0) }

// DealRoundRobin is the round-robin rule, stated once: fact k of i in
// (relation, tuple) order is added to dst[(offset+k) mod len(dst)]; a
// nil entry of dst is a share the caller does not want (a worker deals
// itself one slice). Each server's copy of a relation is resolved on
// the first tuple it gets, sized for its ⌈n/p⌉ share, so a server the
// relation never reaches gets no empty relation either. A copy the
// deal creates takes its tuples as distinct — they are a set's, each
// dealt once — and builds no table; one that existed before the deal
// may hold them already, so it is added to. rel.EncodeRoundRobin is
// this rule's encoding at offset 0, for a deal that ships its shares.
func DealRoundRobin(i *rel.Instance, dst []*rel.Instance, offset int) {
	p := len(dst)
	k := offset
	rels := make([]*rel.Relation, p)
	created := make([]bool, p)
	for _, name := range i.RelationNames() {
		r := i.Relation(name)
		clear(rels)
		share := (r.Len() + p - 1) / p
		for _, t := range r.Tuples() {
			s := k % p
			k++
			if dst[s] == nil {
				continue
			}
			if rels[s] == nil {
				created[s] = dst[s].Relation(name) == nil
				rels[s] = dst[s].EnsureRelationSize(name, r.Arity, share)
			}
			if created[s] {
				rels[s].AddDistinct(t)
			} else {
				rels[s].Add(t)
			}
		}
	}
}

// LoadAt places facts at an explicit server (for adversarial initial
// placements in tests). A server outside [0, P()) panics
// deterministically instead of corrupting a neighbouring slot.
func (c *Cluster) LoadAt(server int, i *rel.Instance) {
	if server < 0 || server >= c.p {
		panic(fmt.Sprintf("mpc: LoadAt(%d) on a %d-server cluster", server, c.p))
	}
	c.servers[server].AddAll(i)
}

// Shard is one routing worker's contribution to a communication
// phase: per-destination outboxes and per-destination delivery counts
// for a contiguous ascending range of source servers. Shards are
// round-private, so destinations (and transports) may adopt their
// outboxes wholesale. Bounding the number of shards by the worker
// count (not p) keeps the outbox count at workers×p instead of p²,
// which matters at large p where most (source, destination) pairs
// carry only a few facts. (A cluster built with a fault-tolerance
// Option deliberately routes one shard per source — p shards — because
// fault plans address individual network links; see WithCheckpoints.)
//
// Shards are what a Transport ships: Outs[dst] is the payload bound
// for destination dst (nil when empty), Sent[dst] its logical fact
// count. Shard indices are the merge order every transport must
// preserve.
type Shard struct {
	Outs      []*rel.Instance // Outs[dst]: facts bound for dst; nil if none
	Sent      []int           // routed deliveries per destination (Keep facts uncounted)
	DeltaSent int             // routed deliveries of DeltaRels relations
	Routed    int             // facts Route was asked about: not kept, and owned (see Round.Owner)
	owned     bool            // routed under an Owner and no Keep: no fact in two shards' Outs[dst]
	err       error
}

// deltaSent sums the shards' Δ deliveries — the DeltaComm of the
// round. Like the merge, it is a pure function of the shards, so it
// does not depend on how they were cut.
func deltaSent(shards []Shard) int {
	n := 0
	for i := range shards {
		n += shards[i].DeltaSent
	}
	return n
}

// routeRange runs the communication phase for sources [lo, hi). It
// only reads those servers' relations and writes its own shard, so
// ranges can route concurrently. Errors pick the lowest erring source
// (sources are visited in ascending order) and, within it, the
// smallest offending fact by Fact.Less, so the reported error does not
// depend on enumeration order; a panicking Router or Keep surfaces as
// the shard's error instead of killing the process. Once a source has a
// confirmed range error, nothing more is delivered or counted for it —
// the remaining facts are only probed (see probeBadRoute) to refine the
// reported fact.
func (c *Cluster) routeRange(lo, hi int, r Round, sets roundSets) (sh Shard) {
	sh.Outs = make([]*rel.Instance, c.p)
	sh.Sent = make([]int, c.p)
	cur := lo
	defer func() {
		if rec := recover(); rec != nil {
			sh.err = fmt.Errorf("mpc: server %d communication phase panicked in round %q: %v", cur, r.Name, rec)
		}
	}()
	for src := lo; src < hi; src++ {
		cur = src
		if err := routeServer(r, sets, c.p, src, c.servers[src], &sh, hi-lo); err != nil {
			// The round is abandoned on error, so the remaining
			// sources of the range need not be routed.
			sh.err = err
			return sh
		}
	}
	return sh
}

// routeServer routes one source server's relations into sh — the body
// of the communication phase for a single source, shared by the
// in-cluster routing fan-out and the standalone RouteSource entry
// point of remote worker processes. Panics from Router/Keep/Owner
// propagate to the caller, which owns the recover.
//
// The round's decision is resolved once per source relation (decide):
// the relation's route and owner functions, so a fact costs only what
// its tuple asks of them. A source relation's outbox at a destination is
// resolved on its first delivery there and kept for the rest of the
// relation — no lookup by name per delivery. It is sized the way
// LoadRoundRobin sizes its destinations, from the ⌈n/p⌉ share a hash
// partition sends each of them: a new outbox for that share from every
// one of the sources sharing sh, an existing one for this source's share
// more — a guess that costs transient capacity when wrong, never a fact.
//
// An outbox is a set, and routing proves most of its facts distinct
// without asking its table: a source's relation is a set, and a fact
// goes to each destination its route list names once (a repeat is
// counted but not delivered again). So a shard of one source appends,
// and so does a shard of several under an Owner and no Keep, since the
// Owner has each fact routed by one source (Round.Owner's law) and kept
// facts cannot meet a routed copy. Any other shard adds, which dedupes.
func routeServer(r Round, sets roundSets, p, src int, srv *rel.Instance, sh *Shard, sources int) error {
	sh.owned = r.Owner != nil && r.Keep == nil
	distinct := sources == 1 || sh.owned
	var badFact rel.Fact
	badDst := -1
	var outs []*rel.Relation
	for _, name := range srv.RelationNames() {
		if sets.resident[name] {
			// Resident relations never enter the communication
			// phase: they are adopted by reference after the merge
			// (see adoptResidents), so carrying them costs O(1) per
			// relation instead of O(facts).
			continue
		}
		isDelta := sets.delta[name]
		rl := srv.Relation(name)
		d := r.decide(name, rl.Arity, src)
		if outs == nil {
			outs = make([]*rel.Relation, p)
		}
		clear(outs)
		share := (rl.Len() + p - 1) / p
		deliver := func(dst int, t rel.Tuple) {
			if outs[dst] == nil {
				if sh.Outs[dst] == nil {
					sh.Outs[dst] = rel.NewInstance()
				}
				hint := share
				if sh.Outs[dst].Relation(name) == nil {
					hint *= sources
				}
				outs[dst] = sh.Outs[dst].EnsureRelationSize(name, rl.Arity, hint)
			}
			if distinct {
				outs[dst].AddDistinct(t)
			} else {
				outs[dst].Add(t)
			}
		}
		rl.Each(func(t rel.Tuple) bool {
			if badDst >= 0 {
				// The round is already doomed at this source: stop
				// delivering, and re-route only facts that could
				// replace the reported (Less-minimal) offender.
				if f := (rel.Fact{Rel: name, Tuple: t}); f.Less(badFact) {
					if dst, bad := probeBadRoute(&d, t, p); bad {
						badFact, badDst = f, dst
					}
				}
				return true
			}
			dsts, kept, asked := d.targets(t)
			if kept {
				deliver(src, t)
				return true
			}
			if !asked {
				return true
			}
			sh.Routed++
			last := -1 // the largest destination delivered to so far
			for k, dst := range dsts {
				if dst < 0 || dst >= p {
					badFact, badDst = rel.Fact{Rel: name, Tuple: t}, dst
					return true
				}
				sh.Sent[dst]++
				if isDelta {
					sh.DeltaSent++
				}
				if dst > last {
					last = dst
				} else if slices.Contains(dsts[:k], dst) {
					continue
				}
				deliver(dst, t)
			}
			return true
		})
		if badDst >= 0 {
			// Names ascend and facts order by relation first, so no
			// fact of a later relation can replace the offender.
			break
		}
	}
	if badDst >= 0 {
		return fmt.Errorf("mpc: route of %v targets server %d outside [0,%d)", badFact, badDst, p)
	}
	return nil
}

// decision is the round's decision on the facts of one relation at one
// source: kept there, or shipped to the servers the relation's route
// names — which only the copies the source owns are asked about.
type decision struct {
	name  string
	src   int
	keep  func(rel.Fact) bool
	route func(rel.Tuple) []int // nil: the round routes nothing
	owner func(rel.Tuple) int   // nil: every copy is its only holder
}

// decide resolves r's decision on the facts of relation name at the
// given arity at source src: the route and the owner function, once per
// relation. Keep, which reads whole facts, is asked per fact.
func (r Round) decide(name string, arity, src int) decision {
	d := decision{name: name, src: src, keep: r.Keep}
	if r.Route != nil {
		d.route = relationRoute(r.Route, name, arity)
		if r.Owner != nil {
			d.owner = r.Owner(name, arity)
		}
	}
	return d
}

// targets is the decision on tuple t: the servers Route names when the
// source is asked about it, or kept here.
func (d *decision) targets(t rel.Tuple) (dsts []int, kept, asked bool) {
	switch {
	case d.keep != nil && d.keep(rel.Fact{Rel: d.name, Tuple: t}):
		return nil, true, false
	case d.route == nil:
		return nil, false, false
	}
	if d.owner != nil {
		if o := d.owner(t); o >= 0 && o != d.src {
			return nil, false, false
		}
	}
	return d.route(t), false, true
}

// probeBadRoute reports whether a source's decision on tuple t names a
// destination outside [0,p). It refines an already-confirmed range
// error to the Less-minimal offending fact, so it recovers from Router,
// Keep and Owner panics and treats the fact as non-offending: a later
// panicking fact must not convert a clean range error into a panic
// error.
func probeBadRoute(d *decision, t rel.Tuple, p int) (dst int, bad bool) {
	defer func() {
		if recover() != nil {
			dst, bad = 0, false
		}
	}()
	dsts, _, _ := d.targets(t)
	for _, to := range dsts {
		if to < 0 || to >= p {
			return to, true
		}
	}
	return 0, false
}

// routePhase runs the communication phase over disjoint ascending
// source ranges of the given chunk size, one shard per range
// (sweep.Each; its package doc is the determinism argument), on
// phaseWorkers of the facts it routes: inline when they are few, one
// goroutine per shard otherwise. Each shard's content depends only on
// its range's data. Shard granularity is invisible downstream: the
// merged inboxes and counts are unions and sums over all sources, so
// they are independent of the chunk size. Shard order is source order,
// so the lowest erring shard carries the lowest erring source.
func (c *Cluster) routePhase(r Round, chunk int) ([]Shard, error) {
	shards := make([]Shard, (c.p+chunk-1)/chunk)
	sets := r.sets()
	facts := 0
	for _, srv := range c.servers {
		facts += nonResident(srv, r.Resident)
	}
	if err := sweep.Each(len(shards), phaseWorkers(facts), func(w int) error {
		shards[w] = c.routeRange(w*chunk, min((w+1)*chunk, c.p), r, sets)
		return shards[w].err
	}); err != nil {
		return nil, err
	}
	return shards, nil
}

// inlineFacts is the most facts a phase of a round handles inline, on
// the caller's goroutine. Below it the goroutines a fan-out starts —
// and the stacks each grows again — cost more than the parallelism
// wins back; a delta step, a gather of a small session and most
// rounds of a tiny one stay under it.
const inlineFacts = 2048

// phaseWorkers is sweep.Each's worker count for a phase that handles
// the given number of facts: one (a plain loop) up to inlineFacts, one
// goroutine per index above. The choice cannot change a result: Each's
// contract (every call once, index-disjoint writes, the lowest index's
// error) makes a loop's output independent of its schedule.
func phaseWorkers(facts int) int {
	if facts <= inlineFacts {
		return 1
	}
	return 0
}

// nonResident counts inst's facts outside the relations resident
// names: the work a phase does on it. Resident relations ride a round
// by reference, whatever their size, so they are no routing and no
// computation work.
func nonResident(inst *rel.Instance, resident []string) int {
	n := inst.Len()
	for k, name := range resident {
		if rl := inst.Relation(name); rl != nil && !slices.Contains(resident[:k], name) {
			n -= rl.Len()
		}
	}
	return n
}

// defaultChunk sizes the source ranges of a cluster built with no
// fault-tolerance Option so the shard count is bounded by GOMAXPROCS.
func (c *Cluster) defaultChunk() int {
	workers := runtime.GOMAXPROCS(0)
	if workers > c.p {
		workers = c.p
	}
	return (c.p + workers - 1) / workers
}

// adoptResidents carries each server's Resident relations into its
// round input by reference — the zero-copy, zero-communication channel
// that lets a delta round's cost scale with |Δ| instead of the
// resident state size. Inboxes are round-private, so adopting live
// server relations is safe: the round's Compute either returns them in
// its output (state carried forward) or drops them. Routing facts into
// a resident relation would silently entangle shipped and resident
// copies, so it is a deterministic error (the lowest offending server's),
// detected before any Compute runs (which keeps the failure atomic).
func (c *Cluster) adoptResidents(r Round, inboxes []*rel.Instance) error {
	for i, srv := range c.servers {
		if err := AdoptResident(r, i, srv, inboxes[i]); err != nil {
			return err
		}
	}
	return nil
}

// computePhase runs the computation phase: local and embarrassingly
// parallel, one call per server (sweep.Each), the lowest panicking
// server's error reported. A nil Compute is the identity and runs
// inline; any other runs on phaseWorkers of its non-resident input.
func (c *Cluster) computePhase(r Round, inputs []*rel.Instance) ([]*rel.Instance, error) {
	next := make([]*rel.Instance, c.p)
	workers := 1
	if r.Compute != nil {
		facts := 0
		for _, in := range inputs {
			facts += nonResident(in, r.Resident)
		}
		workers = phaseWorkers(facts)
	}
	if err := sweep.Each(c.p, workers, func(i int) (err error) {
		next[i], err = ComputeServer(r, i, inputs[i])
		return err
	}); err != nil {
		return nil, err
	}
	return next, nil
}

// commit atomically installs a completed round: the servers' new
// instances and the round's stats become visible together, and the
// rolling post-round checkpoint (see WithCheckpoints) is refreshed.
// No failure path reaches commit, which is what makes RunRound atomic.
func (c *Cluster) commit(next []*rel.Instance, stats RoundStats) {
	copy(c.servers, next)
	c.stats = append(c.stats, stats)
	if c.ft.on {
		c.ft.ckpt = c.snapshot()
	}
}

// RoutedRound is a round whose communication phase has been routed and
// nothing more: every fact sits in a round-private outbox, and the
// loads the round will record are known exactly, but no transport has
// moved anything and the cluster is unchanged. Received, MaxLoad and
// TotalComm are summed from the shards' Sent counts — the same numbers
// every Transport must report back — so they equal the RoundStats that
// Deliver returns. A caller that prices a round before paying for it
// (mpcd's admission control) reads them and either delivers the plan or
// drops it; dropping costs nothing further and leaves no trace.
//
// A RoutedRound is single-use and bound to the cluster state it was
// routed from; see Deliver.
type RoutedRound struct {
	Received  []int // facts each server will receive
	MaxLoad   int   // max over Received
	TotalComm int   // Σ Received
	Routed    int   // facts Route was asked about, summed over the shards (see Shard.Routed)

	cluster   *Cluster
	round     Round
	shards    []Shard
	chunk     int // sources per shard; 1 under a fault-tolerance Option
	at        int // rounds the cluster had committed when this was routed
	delivered bool
}

// StaleRouteReason says why Deliver refused a RoutedRound.
type StaleRouteReason int

const (
	// RoutedElsewhere: the plan was routed on a different cluster.
	RoutedElsewhere StaleRouteReason = iota
	// RoutedDelivered: the plan was already handed to Deliver. Delivery
	// consumes the outboxes (inboxes adopt them), so a plan cannot run
	// twice even if its first delivery failed.
	RoutedDelivered
	// RoutedBehind: after the plan was routed the cluster committed a
	// round, or turned fault-tolerant (WithFaultPlan(p)(c)) and now needs
	// per-source shards. The plan's outboxes describe server data that
	// no longer exists, and fault plans are indexed by absolute round,
	// so it must not fire against the new index.
	RoutedBehind
)

func (k StaleRouteReason) String() string {
	switch k {
	case RoutedElsewhere:
		return "it was routed on another cluster"
	case RoutedDelivered:
		return "it was already delivered"
	default:
		return "the cluster has moved on since it was routed"
	}
}

// StaleRouteError is Deliver's refusal of a RoutedRound it must not
// run. The cluster and the plan are exactly as they were.
type StaleRouteError struct {
	RoundName string
	Reason    StaleRouteReason
}

// Error implements error.
func (e *StaleRouteError) Error() string {
	return fmt.Sprintf("mpc: cannot deliver routed round %q: %v", e.RoundName, e.Reason)
}

// RouteRound runs r's communication phase up to the network: every
// source routes its facts into outboxes (one shard per worker, or one
// per source on a cluster built with a fault-tolerance Option, whose
// fault plans address individual links). It reads the servers and
// writes nothing, so a routing error, or a plan that is never
// delivered, leaves the cluster exactly as it was.
//
// Facts loaded into the cluster between RouteRound and Deliver are not
// in the plan; like facts a Router sends nowhere, the round drops them.
func (c *Cluster) RouteRound(r Round) (*RoutedRound, error) {
	chunk := c.defaultChunk()
	if c.ft.on {
		chunk = 1
	}
	shards, err := c.routePhase(r, chunk)
	if err != nil {
		return nil, err
	}
	rr := &RoutedRound{
		Received: make([]int, c.p),
		cluster:  c, round: r, shards: shards, chunk: chunk, at: len(c.stats),
	}
	for w := range shards {
		rr.Routed += shards[w].Routed
		for dst, n := range shards[w].Sent {
			rr.Received[dst] += n
		}
	}
	rr.MaxLoad, rr.TotalComm = loadOf(rr.Received)
	return rr, nil
}

// loadOf returns the maximum and the sum of the per-server loads.
func loadOf(received []int) (maxLoad, total int) {
	for _, n := range received {
		total += n
		if n > maxLoad {
			maxLoad = n
		}
	}
	return maxLoad, total
}

// Deliver executes the rest of a routed round — verification and fault
// charging, the transport's Exchange, the computation phase — and
// commits it, recording its statistics.
//
// Deliver refuses, with a *StaleRouteError and no state change, a plan
// routed on another cluster, a plan already delivered, and a plan the
// cluster has moved past (it committed a round or turned fault-tolerant
// since). Any other error is RunRound's: the cluster is unchanged, but
// the plan is spent and the round must be routed again.
func (c *Cluster) Deliver(rr *RoutedRound) (RoundStats, error) {
	stale := func(why StaleRouteReason) (RoundStats, error) {
		return RoundStats{}, &StaleRouteError{RoundName: rr.round.Name, Reason: why}
	}
	switch {
	case rr.cluster != c:
		return stale(RoutedElsewhere)
	case rr.delivered:
		return stale(RoutedDelivered)
	case rr.at != len(c.stats) || (c.ft.on && rr.chunk != 1):
		return stale(RoutedBehind)
	}
	rr.delivered = true
	return c.deliver(rr.round, rr.shards, rr.chunk)
}

// RunRound executes one communication + computation round and records
// its statistics: RouteRound, then Deliver, on every cluster.
//
// RunRound is atomic on failure: if it returns a non-nil error — a
// routing error, a panicking Router/Keep/Compute, or an exhausted
// recovery retry budget — every server's instance and the stats slice
// are exactly as they were before the call. Callers may therefore
// retry a failed round (or resume a failed multi-round program, see
// RunResumable) without repairing cluster state first. The guarantee
// holds at the seam too: nothing is committed before Deliver's last
// step, so a round that is routed and then dropped, or whose delivery
// fails, never happened as far as the cluster, its stats and its
// checkpoint can tell.
func (c *Cluster) RunRound(r Round) (RoundStats, error) {
	rr, err := c.RouteRound(r)
	if err != nil {
		return RoundStats{}, err
	}
	return c.Deliver(rr)
}

// Run executes a sequence of rounds, stopping at the first error.
func (c *Cluster) Run(rounds ...Round) error {
	for _, r := range rounds {
		if _, err := c.RunRound(r); err != nil {
			return err
		}
	}
	return nil
}

// RunResumable executes rounds as the cluster's complete logical
// program, resuming after a failure instead of restarting: the prefix
// already recorded in Stats() is skipped (RunRound's atomicity
// guarantees the cluster holds exactly the state after the last
// completed round), and execution continues with the first
// outstanding round. Skipped entries must match the recorded history
// by name — a mismatch means the cluster is mid-way through a
// different program and is an error, not silent corruption.
func (c *Cluster) RunResumable(rounds ...Round) error {
	done := len(c.stats)
	if done > len(rounds) {
		return fmt.Errorf("mpc: cluster has executed %d rounds but the program has only %d", done, len(rounds))
	}
	for i := 0; i < done; i++ {
		if c.stats[i].Name != rounds[i].Name {
			return fmt.Errorf("mpc: cannot resume: executed round %d is %q but the program expects %q",
				i, c.stats[i].Name, rounds[i].Name)
		}
	}
	return c.Run(rounds[done:]...)
}

// Simulate is the in-process executor, the one place a cluster is
// built, loaded and run: a fresh p-server cluster under opts receives
// input round-robin and executes rounds. On error the partially
// executed cluster is still returned, so a caller can checkpoint it
// and resume the same program (Restore, RunResumable).
func Simulate(rounds []Round, p int, input *rel.Instance, opts ...Option) (*Cluster, error) {
	c := NewCluster(p, opts...)
	c.LoadRoundRobin(input)
	return c, c.Run(rounds...)
}

// Output returns the union of all servers' local data — the model's
// convention that the output must be present in the union of the
// servers.
func (c *Cluster) Output() *rel.Instance {
	out := rel.NewInstance()
	for _, s := range c.servers {
		out.AddAll(s)
	}
	return out
}

// Broadcast routes every fact to all p servers: the policy
// policy.Replicate. p must be positive; using a router built for a
// larger cluster than the one executing the round surfaces as
// RunRound's deterministic out-of-range error.
func Broadcast(p int) Router {
	if p <= 0 {
		panic(fmt.Sprintf("mpc: Broadcast needs at least one server (got p=%d)", p))
	}
	return &policy.Replicate{Nodes: p}
}

// ByRelation dispatches routing on the fact's relation name: the policy
// policy.PerRelation, as wide as its widest route. Facts of unlisted
// relations are dropped (routed nowhere). Every route must be a policy
// (what this package's constructors and hypercube's grids are); a bare
// RouterFunc routes a whole round, not one relation in it.
func ByRelation(routes map[string]Router) Router {
	pol := &policy.PerRelation{Policies: make(map[string]policy.Policy, len(routes))}
	for name, r := range routes {
		sub, ok := r.(policy.Policy)
		if !ok {
			panic(fmt.Sprintf("mpc: ByRelation route for %s is a %T, which has no NumNodes", name, r))
		}
		pol.Policies[name] = sub
		pol.Nodes = max(pol.Nodes, sub.NumNodes())
	}
	return pol
}

// HashOn routes a fact to the single server determined by hashing the
// given attribute positions (Example 3.1(1a)'s h(·)): the policy
// policy.Hash on those positions for every relation. Seed decouples
// hash functions across rounds. p must be positive; a p larger than
// the executing cluster's surfaces as RunRound's deterministic
// out-of-range error.
func HashOn(p int, cols []int, seed uint64) Router {
	if p <= 0 {
		panic(fmt.Sprintf("mpc: HashOn needs at least one server (got p=%d)", p))
	}
	if cols == nil {
		cols = []int{} // no positions: one bucket, not Hash's whole-tuple default
	}
	return &policy.Hash{Nodes: p, Cols: cols, Seed: seed}
}
