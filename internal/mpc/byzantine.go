package mpc

import (
	"fmt"
	"math/rand"
	"sort"

	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// Byzantine routing faults and receiver-side routing verification.
//
// The crash-stop machinery in faults.go/recovery.go models servers
// that fail by stopping. A Byzantine server does not stop: it keeps
// participating while violating the routing contract — shipping facts
// to servers the round's Router never named (misroute), fabricating
// facts that exist on no server (forge), or silently withholding facts
// it was supposed to send (omit). In the parallel-correctness view
// this is exactly an integrity violation of the distribution policy:
// the Router IS the policy deciding where facts are allowed to live,
// so a receiver can re-ask it whether an arriving fact belongs — the
// same covers/transfer reasoning internal/pc applies to whole
// policies, applied per delivery.
//
// Detection is therefore two-layered, mirroring what a real deployment
// can check:
//
//   - Receiver-side legality: every delivery (src, dst, f) is checked
//     against the round's own Keep/Route decision, stated once as a
//     policy (roundPlacement) and asked by policy.Verify, the same check
//     a network runs on loaded fragments. This is cheap, needs no extra
//     state, and catches any fact placed where the policy forbids it —
//     misroutes and forged facts at illegal destinations.
//   - Audit by deterministic re-execution: routing is a pure function
//     of the server's committed pre-round state (RouteSource, the same
//     entry point remote workers use), so an auditor re-derives the
//     honest shard and diffs it against what the accused actually
//     shipped. This additionally catches selective omission, which no
//     receiver can see locally.
//
// Recovery reuses the crash-stop path's determinism argument: a
// transiently lying server is quarantined — its shard is replaced by
// the audited re-execution, charged to the recovery metrics
// (Quarantined, Retries, ReplicaComm, virtual-clock ticks) — and the
// round proceeds with byte-identical logical output. A persistently
// compromised server lies identically under audit re-execution, so its
// corruption survives the audit; if any of it is illegal under the
// policy the round fails with a typed RoutingIntegrityError naming the
// Fact.Less-minimal witness and the accused server. A persistent
// omitter whose audit matches and whose deliveries are all legal is
// undetectable by design (it is indistinguishable from a smaller
// input), which is why ByzantineFaultMatrix excludes that corner; the
// DESIGN.md failure-model taxonomy spells out the boundary.

// ByzKind names the ways a Byzantine server can violate the routing
// contract.
type ByzKind int

const (
	// Misroute ships routed facts to destinations the Router never
	// named.
	Misroute ByzKind = iota
	// Forge fabricates facts that exist on no server and ships them.
	Forge
	// Omit silently withholds routed facts (a selective drop: unlike a
	// FaultPlan drop, nothing is ever retransmitted voluntarily).
	Omit
)

// String names the kind.
func (k ByzKind) String() string {
	switch k {
	case Misroute:
		return "misroute"
	case Forge:
		return "forge"
	case Omit:
		return "omit"
	}
	return fmt.Sprintf("ByzKind(%d)", int(k))
}

// verb is the past-tense rendering used in error messages.
func (k ByzKind) verb() string {
	switch k {
	case Misroute:
		return "misrouted"
	case Forge:
		return "forged"
	default:
		return "omitted"
	}
}

// ByzantineEvent makes server Src corrupt its round-Round communication
// phase: Count facts are misrouted/forged/omitted, with the concrete
// choices drawn from Seed so the corruption is as reproducible as the
// rest of the engine. Persistent marks a compromised server — one that
// lies identically when the auditor re-executes its routing — as
// opposed to a transient glitch that re-execution heals.
type ByzantineEvent struct {
	Round      int
	Src        int
	Kind       ByzKind
	Count      int
	Seed       int64
	Persistent bool
}

// AddByzantine schedules one Byzantine routing event. Like the plan's
// crash-stop and link faults it fires on the cluster's Round-th
// executed round.
func (p *FaultPlan) AddByzantine(ev ByzantineEvent) *FaultPlan {
	p.byz = append(p.byz, ev)
	return p
}

// Persistent reports whether the plan schedules a Persistent Byzantine
// event: a compromise the audit reproduces instead of healing, so a run
// under the plan must fail with a RoutingIntegrityError where a run
// under any other plan must recover.
func (p *FaultPlan) Persistent() bool {
	if p == nil {
		return false
	}
	for _, ev := range p.byz {
		if ev.Persistent {
			return true
		}
	}
	return false
}

// byzantineAt returns round's Byzantine events in ascending source
// order (stable for events of the same source, so multi-event
// corruption is applied in schedule order).
func (p *FaultPlan) byzantineAt(round int) []ByzantineEvent {
	if p == nil {
		return nil
	}
	var out []ByzantineEvent
	for _, ev := range p.byz {
		if ev.Round == round {
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Src < out[j].Src })
	return out
}

// RoutingIntegrityError is the typed failure of routing verification: a
// delivery that violates the round's placement policy and survives the
// re-execution audit (a persistently compromised server). Witness is
// the Fact.Less-minimal illegally placed fact, so repeated failing runs
// report the same evidence.
type RoutingIntegrityError struct {
	Round     int    // absolute round index
	RoundName string // Round.Name
	Accused   int    // source server the verification layer blames
	Dst       int    // destination whose inbox held the witness
	Kind      ByzKind
	Witness   rel.Fact
}

// Error implements error.
func (e *RoutingIntegrityError) Error() string {
	return fmt.Sprintf("mpc: routing integrity violation in round %q (round %d): server %d %s %v bound for server %d",
		e.RoundName, e.Round, e.Accused, e.Kind.verb(), e.Witness, e.Dst)
}

// WithRoutingVerification enables sampled receiver-side routing checks
// at whatever granularity the shards are cut: each destination re-asks
// the round's Keep/Route decision whether a sampled delivery belongs to
// it, and a violation fails the round with a RoutingIntegrityError
// carrying the Fact.Less-minimal witness (found by an exhaustive
// rescan, so the sampling stride never changes which witness is
// reported).
// sampleEvery = 1 checks every delivered fact; k > 1 checks one in k
// (the production setting: bounded overhead, eventual detection of a
// repeat offender); 0 — the default — disables verification, and the
// round pays nothing for it.
func WithRoutingVerification(sampleEvery int) Option {
	if sampleEvery < 0 {
		panic(fmt.Sprintf("mpc: negative routing-verification stride %d", sampleEvery))
	}
	return func(c *Cluster) { c.verifyEvery = sampleEvery }
}

// roundPlacement is a round's placement as the receivers of a shard
// covering sources [lo, hi) see it: the policy a delivery is checked
// against. It recomputes the communication phase's Keep/Route decision —
// the Router is the placement policy (policy.Policy's Route is Router's),
// so receivers can re-ask it. A fact Keep accepts belongs at the shard's
// own sources, every other fact where Route sends it, and a fact Keep or
// Route panics on (forged facts need not even have the relation's arity)
// nowhere. Round.Owner is not consulted: it says which holder ships a
// fact, not where the fact may land, so an owned delivery is a legal one
// (a holder shipping a copy it does not own is the audit's to catch).
type roundPlacement struct {
	r         Round
	p, lo, hi int
}

// shardPlacement is round r's placement for the receivers of shard w of
// a communication phase cut into shards of chunk sources.
func shardPlacement(r Round, p, chunk, w int) roundPlacement {
	lo := w * chunk
	return roundPlacement{r: r, p: p, lo: lo, hi: min(lo+chunk, p)}
}

// NumNodes implements policy.Policy.
func (pl roundPlacement) NumNodes() int { return pl.p }

// Route implements policy.Policy.
func (pl roundPlacement) Route(f rel.Fact) (dsts []int) {
	defer func() {
		if recover() != nil {
			dsts = nil
		}
	}()
	if pl.r.Keep != nil && pl.r.Keep(f) {
		return policy.AllNodes(pl.hi)[pl.lo:]
	}
	if pl.r.Route == nil {
		return nil
	}
	return pl.r.Route.Route(f)
}

// misplaced is routing verification's exhaustive pass over shards
// [from, to) of a phase cut into shards of chunk sources: policy.Verify
// asks each shard's deliveries of the placement its receivers see, and
// the Fact.Less-minimal misplaced fact — the lowest shard, then the
// lowest destination, among equals — is the witness. The first source
// in the shard's range that holds the witness misrouted it; with no
// holder it was forged, by the range's first source. It returns nil
// when every delivery conforms.
func (c *Cluster) misplaced(round int, r Round, shards []Shard, chunk, from, to int) *RoutingIntegrityError {
	var wit *policy.Violation
	wShard := 0
	for w := from; w < to; w++ {
		for _, v := range policy.Verify(shardPlacement(r, c.p, chunk, w), shards[w].Outs) {
			if wit == nil || v.Fact.Less(wit.Fact) {
				wit, wShard = v, w
			}
		}
	}
	if wit == nil {
		return nil
	}
	pl := shardPlacement(r, c.p, chunk, wShard)
	accused, kind := pl.lo, Forge
	for s := pl.lo; s < pl.hi; s++ {
		if c.servers[s].Contains(wit.Fact) {
			accused, kind = s, Misroute
			break
		}
	}
	return &RoutingIntegrityError{
		Round: round, RoundName: r.Name,
		Accused: accused, Dst: wit.Node, Kind: kind, Witness: wit.Fact,
	}
}

// shardEqual reports whether two shards of the same source ship the
// same deliveries with the same logical counts.
func shardEqual(a, b *Shard, p int) bool {
	if a.DeltaSent != b.DeltaSent {
		return false
	}
	for d := 0; d < p; d++ {
		if a.Sent[d] != b.Sent[d] {
			return false
		}
		ao, bo := a.Outs[d], b.Outs[d]
		switch {
		case ao == nil && bo == nil:
		case ao == nil:
			if !bo.IsEmpty() {
				return false
			}
		case bo == nil:
			if !ao.IsEmpty() {
				return false
			}
		default:
			if !ao.Equal(bo) {
				return false
			}
		}
	}
	return true
}

// delivery is one (destination, fact) pair of a shard — the unit
// misroute and omit corruption picks from.
type delivery struct {
	dst int
	f   rel.Fact
}

// routedDeliveries lists a source shard's cross-network deliveries
// (dst ≠ src — self-deliveries, including Keep facts, are not counted
// in Sent and are not corruption targets) in (Fact.Less, dst) order,
// so which facts an event corrupts is a pure function of the shard.
func routedDeliveries(src int, sh *Shard) []delivery {
	var out []delivery
	for d := range sh.Outs {
		if d == src || sh.Outs[d] == nil {
			continue
		}
		for _, f := range sh.Outs[d].SortedFacts() {
			out = append(out, delivery{dst: d, f: f})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].f.Less(out[j].f) {
			return true
		}
		if out[j].f.Less(out[i].f) {
			return false
		}
		return out[i].dst < out[j].dst
	})
	return out
}

// forbiddenDst picks a destination the policy forbids for (src, f),
// probing from a seeded starting point so different events corrupt
// different links. ok is false when every destination is legal (e.g. a
// broadcast round), in which case the fact cannot be detectably
// misplaced and the applier skips it.
func forbiddenDst(r Round, p, src int, f rel.Fact, rng *rand.Rand) (int, bool) {
	var pl policy.Policy = shardPlacement(r, p, 1, src)
	start := rng.Intn(p)
	for i := 0; i < p; i++ {
		d := (start + i) % p
		if !policy.Responsible(pl, d, f) {
			return d, true
		}
	}
	return 0, false
}

// applyByzEvent corrupts a single-source shard in place. It is a pure
// function of (shard content, event), which is what lets the audit
// re-apply a Persistent event to the re-executed shard and reproduce a
// compromised server's lie exactly.
func applyByzEvent(r Round, p, src int, sh *Shard, ev ByzantineEvent, local *rel.Instance) {
	rng := rand.New(rand.NewSource(ev.Seed))
	switch ev.Kind {
	case Misroute:
		dels := routedDeliveries(src, sh)
		moved := 0
		for _, dl := range dels {
			if moved >= ev.Count {
				break
			}
			bad, ok := forbiddenDst(r, p, src, dl.f, rng)
			if !ok {
				continue
			}
			withhold(sh, []delivery{dl}, nil)
			if sh.Outs[bad] == nil {
				sh.Outs[bad] = rel.NewInstance()
			}
			sh.Outs[bad].Add(dl.f)
			sh.Sent[bad]++
			moved++
		}
	case Forge:
		// Fabricated facts borrow the shape of a relation the server
		// actually holds (so they parse as plausible data) but use
		// values far outside any workload's domain; an empty server
		// forges into a fresh relation no Router knows.
		name, arity := "Z!forged", 1
		if names := local.RelationNames(); len(names) > 0 {
			name = names[0]
			arity = local.Relation(name).Arity
		}
		for k := 0; k < ev.Count; k++ {
			t := make(rel.Tuple, arity)
			for i := range t {
				t[i] = rel.Value(int64(1)<<40 + int64(k*arity+i))
			}
			f := rel.Fact{Rel: name, Tuple: t}
			d, ok := forbiddenDst(r, p, src, f, rng)
			if !ok {
				continue
			}
			if sh.Outs[d] == nil {
				sh.Outs[d] = rel.NewInstance()
			}
			sh.Outs[d].Add(f)
			sh.Sent[d]++
		}
	case Omit:
		dels := routedDeliveries(src, sh)
		if len(dels) > ev.Count {
			dels = dels[:max(ev.Count, 0)]
		}
		withhold(sh, dels, r.sets().delta)
	}
}

// withhold takes deliveries of sh out of it: every outbox relation
// holding one is rebuilt without them, in its own Each order, and Sent
// — and DeltaSent, for a relation in delta — falls by one per delivery.
// A relation only grows, so a fact leaves an outbox by a rebuild; one
// left empty leaves the outbox, which, like a routed one, holds no
// empty relation (MergeInbox may adopt it whole).
func withhold(sh *Shard, dels []delivery, delta map[string]bool) {
	gone := make(map[int]*rel.Instance)
	for _, dl := range dels {
		if gone[dl.dst] == nil {
			gone[dl.dst] = rel.NewInstance()
		}
		gone[dl.dst].Add(dl.f)
		sh.Sent[dl.dst]--
		if delta[dl.f.Rel] {
			sh.DeltaSent--
		}
	}
	for dst, g := range gone {
		out := sh.Outs[dst]
		for _, name := range g.RelationNames() {
			drop := g.Relation(name)
			if kept := rel.Select(out.Relation(name), func(t rel.Tuple) bool { return !drop.Contains(t) }); kept.Len() > 0 {
				out.SetRelation(kept)
			} else {
				out.RemoveRelation(name)
			}
		}
	}
}

// applyByzantine realizes the fault plan's Byzantine events for this
// round on the per-source shards (a cluster that holds a plan routes
// one shard per source, so shard index = source) and runs the
// detection pipeline per accused source, ascending: corrupt, audit by
// re-execution, quarantine on audit mismatch, receiver-side legality
// check of whatever finally ships. It returns the virtual-clock completion tick of the
// verification layer's repairs (0 when nothing fired). All of this
// precedes the Exchange, so a quarantined round's logical metrics are
// byte-identical to fault-free by construction, and an error return
// precedes any state mutation (RunRound's atomicity).
func (c *Cluster) applyByzantine(round int, r Round, shards []Shard, stats *RoundStats) (int, error) {
	events := c.ft.plan.byzantineAt(round)
	if len(events) == 0 {
		return 0, nil
	}
	end := 0
	for i := 0; i < len(events); {
		src := events[i].Src
		if src < 0 || src >= c.p {
			return 0, fmt.Errorf("mpc: byzantine event source %d outside [0,%d)", src, c.p)
		}
		j := i
		for j < len(events) && events[j].Src == src {
			applyByzEvent(r, c.p, src, &shards[src], events[j], c.servers[src])
			j++
		}
		// Audit: re-derive the honest shard from the server's committed
		// pre-round state — routing is a pure function of it, via the
		// same entry point remote worker processes use.
		honest, err := RouteSource(r, c.p, src, c.servers[src])
		if err != nil {
			return 0, err
		}
		for k := i; k < j; k++ {
			if events[k].Persistent {
				// A compromised server lies identically when the
				// auditor re-runs it: reproduce its corruption.
				applyByzEvent(r, c.p, src, &honest, events[k], c.servers[src])
			}
		}
		if !shardEqual(&honest, &shards[src], c.p) {
			// The audit caught a transient lie: quarantine the source
			// and adopt the re-executed shard. One retried routing pass
			// re-ships the source's whole outbox.
			reshipped := 0
			for _, n := range honest.Sent {
				reshipped += n
			}
			shards[src] = honest
			stats.Quarantined++
			stats.Retries++
			stats.ReplicaComm += reshipped
			if t := retryCompletion(1, 1); t > end {
				end = t
			}
		}
		// Receiver-side legality check of what the source finally
		// ships. Corruption that survived the audit (a persistent liar)
		// is detectable iff some delivery violates the policy.
		if e := c.misplaced(round, r, shards, 1, src, src+1); e != nil {
			return 0, e
		}
		i = j
	}
	return end, nil
}

// verifyShards is the sampled receiver-side verification RunRound runs
// when WithRoutingVerification is installed: every sampleEvery-th
// delivered fact is checked against the round's placement policy. On a
// violation the exhaustive rescan (misplaced) finds the Fact.Less-minimal
// witness, so the reported error is independent of the sampling stride
// that happened to trip first. Enumeration is deliberately the unordered
// arena walk (Relation.Each), not the sorted Instance.Each: sorting
// every outbox would cost more than the checks themselves, and the
// detection decision is order-independent — only the witness must be
// canonical, and the rescan guarantees that.
func (c *Cluster) verifyShards(r Round, shards []Shard, chunk int) error {
	counter := 0
	for w := range shards {
		var pl policy.Policy = shardPlacement(r, c.p, chunk, w)
		for d, out := range shards[w].Outs {
			if out == nil {
				continue
			}
			bad := false
			for _, name := range out.RelationNames() {
				out.Relation(name).Each(func(t rel.Tuple) bool {
					counter++
					bad = counter%c.verifyEvery == 0 && !policy.Responsible(pl, d, rel.Fact{Rel: name, Tuple: t})
					return !bad
				})
				if !bad {
					continue
				}
				if e := c.misplaced(len(c.stats), r, shards, chunk, 0, len(shards)); e != nil {
					return e
				}
				// The sampled pass saw a violation, so the exhaustive pass
				// must find one; reaching here is an engine bug, not a fault.
				return fmt.Errorf("mpc: routing verification lost its witness in round %q", r.Name)
			}
		}
	}
	return nil
}

// ByzantineFaultMatrix is the seeded Byzantine counterpart of
// StandardFaultMatrix: six plans of Byzantine events covering each
// corruption kind as a transient glitch (healed by quarantine —
// byte-identical output required), a multi-source multi-round mix, and
// the two persistent compromises the receiver side can prove (misroute
// and forge — a typed RoutingIntegrityError required). Which of the two
// outcomes a plan owes is read off the plan itself: Persistent reports
// it. Persistent omission is excluded by design: a compromised server
// that withholds facts AND lies identically under audit re-execution is
// indistinguishable from a world where those facts never existed, so no
// verifier can flag it (see DESIGN.md's failure-model taxonomy).
// Sub-seeds are fixed offsets of the caller's seed so the matrix is
// reproducible as a unit.
func ByzantineFaultMatrix(seed int64, rounds, p int) []NamedFaultPlan {
	src := func(i int) int { return i % p }
	later := 0
	if rounds > 1 {
		later = 1
	}
	return []NamedFaultPlan{
		{"misroute-transient", NewFaultPlan().
			AddByzantine(ByzantineEvent{Round: 0, Src: src(1), Kind: Misroute, Count: 2, Seed: seed + 1})},
		{"forge-transient", NewFaultPlan().
			AddByzantine(ByzantineEvent{Round: 0, Src: src(2), Kind: Forge, Count: 3, Seed: seed + 2})},
		{"omit-transient", NewFaultPlan().
			AddByzantine(ByzantineEvent{Round: 0, Src: 0, Kind: Omit, Count: 2, Seed: seed + 3})},
		{"multi-transient", NewFaultPlan().
			AddByzantine(ByzantineEvent{Round: 0, Src: src(1), Kind: Misroute, Count: 1, Seed: seed + 4}).
			AddByzantine(ByzantineEvent{Round: 0, Src: src(3), Kind: Forge, Count: 2, Seed: seed + 5}).
			AddByzantine(ByzantineEvent{Round: later, Src: 0, Kind: Omit, Count: 1, Seed: seed + 6})},
		{"misroute-persistent", NewFaultPlan().
			AddByzantine(ByzantineEvent{Round: 0, Src: src(1), Kind: Misroute, Count: 1, Seed: seed + 7, Persistent: true})},
		{"forge-persistent", NewFaultPlan().
			AddByzantine(ByzantineEvent{Round: 0, Src: 0, Kind: Forge, Count: 2, Seed: seed + 8, Persistent: true})},
	}
}
