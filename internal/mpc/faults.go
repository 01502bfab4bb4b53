package mpc

import (
	"fmt"
	"math/rand"
	"sort"
)

// Deterministic fault injection for the synchronous engine. A
// FaultPlan is a pure function of (round, server) / (round, link): it
// names, ahead of time, which computations crash, which network
// transfers are dropped or duplicated, and which servers straggle.
// Faults cost time on a virtual clock (see retryCompletion) — never
// wall time, which mpclint's wallclock-free analyzer bans from
// library code — so a faulty execution is exactly as reproducible as
// a fault-free one.
//
// Fault semantics, fixed here and relied on by recovery.go:
//
//   - Crash(r, s) = n: server s's computation in logical round r fails
//     n times before succeeding. Each failure discards the attempt's
//     state; recovery re-executes from the round's checkpointed input.
//   - Drop(r, src, dst) = n: the transfer src→dst in round r is lost n
//     times before a retransmission gets through. Drops address
//     network links, so they apply only to src ≠ dst transfers that
//     actually carry facts — self-delivery (including Keep facts)
//     never traverses the network.
//   - Dup(r, src, dst) = n: the transfer src→dst arrives n extra
//     times. Deliveries are idempotent set unions, so duplicates cost
//     replica communication but cannot change the merged inbox.
//   - Straggle(r, s) = d: server s's computation in round r takes d
//     extra virtual ticks. Stragglers don't fail — they are slow —
//     so past the speculation threshold a backup copy of the
//     partition races the primary (see recovery.go).
//   - Corrupt(r, src, dst) = n: the transfer src→dst arrives n times
//     with a damaged payload before a clean retransmission gets
//     through. The receiver detects the damage (the TCP transport
//     realizes it as frames failing their CRC; see tcp.go) and
//     discards the frame as line noise, so corruption behaves like a
//     drop on the virtual clock: detected retransmissions, never
//     wrong data.
//
// A plan also schedules Byzantine routing events (AddByzantine; see
// byzantine.go): a server that stays alive but misroutes, forges or
// withholds facts in one round's communication phase. They share the
// plan's absolute round indexing, so one plan is the whole schedule of
// what goes wrong in which round of a run.
//
// Faults can also be scheduled for server GROUPS at once — rack-scoped
// power loss (AddGroupCrash) and rack-scoped network partitions
// (AddGroupPartition) — modelling correlated failures, which expand
// into the same per-site crash/drop schedule and therefore thread
// through checkpoint recovery, delta programs, and the frame-level
// chaos tests unchanged.
type FaultPlan struct {
	crash    map[serverKey]int
	drop     map[linkKey]int
	dup      map[linkKey]int
	straggle map[serverKey]int
	corrupt  map[linkKey]int
	byz      []ByzantineEvent
}

type serverKey struct{ round, server int }

type linkKey struct{ round, src, dst int }

// NewFaultPlan returns an empty plan (injects nothing).
func NewFaultPlan() *FaultPlan {
	return &FaultPlan{
		crash:    map[serverKey]int{},
		drop:     map[linkKey]int{},
		dup:      map[linkKey]int{},
		straggle: map[serverKey]int{},
		corrupt:  map[linkKey]int{},
	}
}

// AddCrash makes server s's computation in round r fail n times.
func (p *FaultPlan) AddCrash(r, s, n int) *FaultPlan {
	p.crash[serverKey{r, s}] += n
	return p
}

// AddDrop makes the transfer src→dst in round r be lost n times.
func (p *FaultPlan) AddDrop(r, src, dst, n int) *FaultPlan {
	p.drop[linkKey{r, src, dst}] += n
	return p
}

// AddDup makes the transfer src→dst in round r arrive n extra times.
func (p *FaultPlan) AddDup(r, src, dst, n int) *FaultPlan {
	p.dup[linkKey{r, src, dst}] += n
	return p
}

// AddStraggle delays server s's computation in round r by d virtual
// ticks.
func (p *FaultPlan) AddStraggle(r, s, d int) *FaultPlan {
	p.straggle[serverKey{r, s}] += d
	return p
}

// AddCorrupt makes the transfer src→dst in round r arrive n times with
// a damaged payload (each detected and retransmitted) before the clean
// copy gets through.
func (p *FaultPlan) AddCorrupt(r, src, dst, n int) *FaultPlan {
	p.corrupt[linkKey{r, src, dst}] += n
	return p
}

// AddGroupCrash makes every server in the group crash n times in round
// r — a rack losing power is one event, not |rack| independent ones.
func (p *FaultPlan) AddGroupCrash(r int, group []int, n int) *FaultPlan {
	for _, s := range group {
		p.AddCrash(r, s, n)
	}
	return p
}

// AddGroupPartition drops, n times, every transfer that crosses the
// boundary between the group and the rest of a total-server cluster in
// round r — a rack-scoped network partition, in both directions. As
// with single-link drops, entries for links that carry no facts are
// inert.
func (p *FaultPlan) AddGroupPartition(r int, group []int, total, n int) *FaultPlan {
	in := make(map[int]bool, len(group))
	for _, s := range group {
		in[s] = true
	}
	for src := 0; src < total; src++ {
		for dst := 0; dst < total; dst++ {
			if src == dst || in[src] == in[dst] {
				continue
			}
			p.AddDrop(r, src, dst, n)
		}
	}
	return p
}

// Rack returns the servers of rack g when p servers are grouped into
// racks of rackSize consecutive indices (the last rack may be short).
func Rack(g, rackSize, p int) []int {
	if rackSize < 1 {
		rackSize = 1
	}
	lo := g * rackSize
	hi := lo + rackSize
	if hi > p {
		hi = p
	}
	var out []int
	for s := lo; s < hi; s++ {
		out = append(out, s)
	}
	return out
}

// Empty reports whether the plan injects any fault at all.
func (p *FaultPlan) Empty() bool {
	if p == nil {
		return true
	}
	return len(p.crash) == 0 && len(p.drop) == 0 && len(p.dup) == 0 &&
		len(p.straggle) == 0 && len(p.corrupt) == 0 && len(p.byz) == 0
}

// String summarizes the plan's fault counts. Corruption sites and
// Byzantine events appear only when present, so the renderings of
// plans without them are unchanged.
func (p *FaultPlan) String() string {
	if p.Empty() {
		return "fault plan: none"
	}
	s := fmt.Sprintf("fault plan: crashes=%d drops=%d dups=%d stragglers=%d",
		len(p.crash), len(p.drop), len(p.dup), len(p.straggle))
	if len(p.corrupt) > 0 {
		s += fmt.Sprintf(" corrupted=%d", len(p.corrupt))
	}
	if len(p.byz) > 0 {
		s += fmt.Sprintf(" byzantine=%d", len(p.byz))
	}
	return s
}

// Nil-safe accessors: a nil plan injects nothing, so the recovery
// path can be written without nil checks.

func (p *FaultPlan) crashes(r, s int) int {
	if p == nil {
		return 0
	}
	return p.crash[serverKey{r, s}]
}

func (p *FaultPlan) drops(r, src, dst int) int {
	if p == nil {
		return 0
	}
	return p.drop[linkKey{r, src, dst}]
}

func (p *FaultPlan) dups(r, src, dst int) int {
	if p == nil {
		return 0
	}
	return p.dup[linkKey{r, src, dst}]
}

func (p *FaultPlan) straggles(r, s int) int {
	if p == nil {
		return 0
	}
	return p.straggle[serverKey{r, s}]
}

func (p *FaultPlan) corrupts(r, src, dst int) int {
	if p == nil {
		return 0
	}
	return p.corrupt[linkKey{r, src, dst}]
}

// FaultProfile parameterizes RandomFaultPlan: per-(round, server) and
// per-(round, link) fault probabilities plus severity bounds.
type FaultProfile struct {
	CrashRate    float64 // P[server's compute crashes in a round]
	DropRate     float64 // P[a carrying link's transfer is dropped in a round]
	DupRate      float64 // P[a carrying link's transfer is duplicated in a round]
	StraggleRate float64 // P[a server straggles in a round]
	CorruptRate  float64 // P[a carrying link's transfer arrives damaged in a round]
	MaxRepeat    int     // max crash/drop/corrupt repetitions per fault site (≥1)
	MaxStraggle  int     // max straggler delay in virtual ticks (≥1)
}

// DefaultFaultProfile mixes every fault type at rates that make
// multi-fault rounds common on small clusters while staying within
// the default retry budget (MaxRepeat ≤ DefaultRetryBudget).
func DefaultFaultProfile() FaultProfile {
	return FaultProfile{
		CrashRate:    0.15,
		DropRate:     0.08,
		DupRate:      0.08,
		StraggleRate: 0.20,
		MaxRepeat:    2,
		MaxStraggle:  4,
	}
}

// RandomFaultPlan draws a plan for a rounds × p execution from the
// profile. The draw is a pure function of the seed: fault sites are
// visited in a fixed order (rounds ascending; within a round servers
// ascending, then links in (src, dst) ascending order) and every site
// consumes the same number of random variates whether or not it
// faults, so plans are stable under seed reuse.
func RandomFaultPlan(seed int64, rounds, p int, prof FaultProfile) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	if prof.MaxRepeat < 1 {
		prof.MaxRepeat = 1
	}
	if prof.MaxStraggle < 1 {
		prof.MaxStraggle = 1
	}
	plan := NewFaultPlan()
	for r := 0; r < rounds; r++ {
		for s := 0; s < p; s++ {
			if rng.Float64() < prof.CrashRate {
				plan.AddCrash(r, s, 1+rng.Intn(prof.MaxRepeat))
			}
			if rng.Float64() < prof.StraggleRate {
				plan.AddStraggle(r, s, 1+rng.Intn(prof.MaxStraggle))
			}
		}
		for src := 0; src < p; src++ {
			for dst := 0; dst < p; dst++ {
				if src == dst {
					continue
				}
				if rng.Float64() < prof.DropRate {
					plan.AddDrop(r, src, dst, 1+rng.Intn(prof.MaxRepeat))
				}
				if rng.Float64() < prof.DupRate {
					plan.AddDup(r, src, dst, 1+rng.Intn(prof.MaxRepeat))
				}
			}
		}
	}
	if prof.CorruptRate > 0 {
		// Corruption draws live in their own trailing pass over all
		// rounds, after every pre-existing fault kind has consumed its
		// variates — so a profile that gains a CorruptRate still lands
		// its crashes/drops/dups/stragglers exactly where it always
		// did, and corruption-free profiles are bit-identical to the
		// pre-corruption implementation.
		for r := 0; r < rounds; r++ {
			for src := 0; src < p; src++ {
				for dst := 0; dst < p; dst++ {
					if src == dst {
						continue
					}
					if rng.Float64() < prof.CorruptRate {
						plan.AddCorrupt(r, src, dst, 1+rng.Intn(prof.MaxRepeat))
					}
				}
			}
		}
	}
	return plan
}

// CorrelatedProfile parameterizes RandomCorrelatedFaultPlan: per-
// (round, rack) probabilities of rack-scoped events.
type CorrelatedProfile struct {
	RackCrashRate     float64 // P[a rack loses power in a round]
	RackPartitionRate float64 // P[a rack is partitioned off in a round]
	MaxRepeat         int     // max repetitions per event (≥1)
}

// RandomCorrelatedFaultPlan draws rack-scoped correlated failures for a
// rounds × p execution with racks of rackSize consecutive servers. The
// draw is a pure function of the seed: sites are visited in fixed order
// (rounds ascending, racks ascending, {crash draw, partition draw} per
// rack) and every site consumes the same number of variates whether or
// not it faults.
func RandomCorrelatedFaultPlan(seed int64, rounds, p, rackSize int, prof CorrelatedProfile) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	if prof.MaxRepeat < 1 {
		prof.MaxRepeat = 1
	}
	if rackSize < 1 {
		rackSize = 1
	}
	racks := (p + rackSize - 1) / rackSize
	plan := NewFaultPlan()
	for r := 0; r < rounds; r++ {
		for g := 0; g < racks; g++ {
			if rng.Float64() < prof.RackCrashRate {
				plan.AddGroupCrash(r, Rack(g, rackSize, p), 1+rng.Intn(prof.MaxRepeat))
			}
			if rng.Float64() < prof.RackPartitionRate {
				plan.AddGroupPartition(r, Rack(g, rackSize, p), p, 1+rng.Intn(prof.MaxRepeat))
			}
		}
	}
	return plan
}

// NamedFaultPlan labels a plan for matrix experiments and reports.
type NamedFaultPlan struct {
	Name string
	Plan *FaultPlan
}

// StandardFaultMatrix is the seeded fault matrix the fault-transparency
// invariant is checked against: thirteen plans covering each fault type
// in isolation (crash, drop, dup, straggle, corrupt), pairwise mixes,
// the default and a heavier random mix, one handcrafted adversary that
// hits round 0 (the round whose loss discards the most downstream work)
// with a crash and a drop at once, and three correlated-failure plans
// (random rack crashes, random rack partitions, and a handcrafted rack
// adversary that powers off one rack while partitioning another in
// round 0). Partition plans draw single-repeat events because two
// overlapping rack partitions already dump their drops on the same
// boundary links, and the sum must stay within the retry budget.
// Sub-seeds are fixed offsets of the caller's seed so the matrix is
// reproducible as a unit; new plans are appended at the end so
// short-mode prefixes of the matrix stay stable.
func StandardFaultMatrix(seed int64, rounds, p int) []NamedFaultPlan {
	only := func(f FaultProfile, keep string) FaultProfile {
		g := FaultProfile{MaxRepeat: f.MaxRepeat, MaxStraggle: f.MaxStraggle}
		switch keep {
		case "crash":
			g.CrashRate = 0.35
		case "drop":
			g.DropRate = 0.25
		case "dup":
			g.DupRate = 0.25
		case "straggle":
			g.StraggleRate = 0.45
		}
		return g
	}
	def := DefaultFaultProfile()
	heavy := FaultProfile{CrashRate: 0.30, DropRate: 0.15, DupRate: 0.15, StraggleRate: 0.35, MaxRepeat: 3, MaxStraggle: 6}
	adversary := NewFaultPlan().
		AddCrash(0, 0, 2).
		AddDrop(0, p-1, 0, 2).
		AddStraggle(0, p/2, 5)
	matrix := []NamedFaultPlan{
		{"crash-only", RandomFaultPlan(seed+1, rounds, p, only(def, "crash"))},
		{"drop-only", RandomFaultPlan(seed+2, rounds, p, only(def, "drop"))},
		{"dup-only", RandomFaultPlan(seed+3, rounds, p, only(def, "dup"))},
		{"straggle-only", RandomFaultPlan(seed+4, rounds, p, only(def, "straggle"))},
		{"crash+drop", RandomFaultPlan(seed+5, rounds, p, FaultProfile{CrashRate: 0.2, DropRate: 0.2, MaxRepeat: 2, MaxStraggle: 1})},
		{"dup+straggle", RandomFaultPlan(seed+6, rounds, p, FaultProfile{DupRate: 0.2, StraggleRate: 0.3, MaxRepeat: 2, MaxStraggle: 4})},
		{"mixed-default", RandomFaultPlan(seed+7, rounds, p, def)},
		{"mixed-heavy", RandomFaultPlan(seed+8, rounds, p, heavy)},
		{"adversary-round0", adversary},
	}
	rack := p / 4
	if rack < 2 {
		rack = 2
	}
	racks := (p + rack - 1) / rack
	rackAdversary := NewFaultPlan().
		AddGroupCrash(0, Rack(0, rack, p), 2).
		AddGroupPartition(0, Rack(racks-1, rack, p), p, 1).
		AddStraggle(0, p/2, 4)
	matrix = append(matrix,
		NamedFaultPlan{"corrupt-only", RandomFaultPlan(seed+9, rounds, p,
			FaultProfile{CorruptRate: 0.25, MaxRepeat: 2, MaxStraggle: 1})},
		NamedFaultPlan{"rack-crash", RandomCorrelatedFaultPlan(seed+10, rounds, p, rack,
			CorrelatedProfile{RackCrashRate: 0.25, MaxRepeat: 2})},
		NamedFaultPlan{"rack-partition", RandomCorrelatedFaultPlan(seed+11, rounds, p, rack,
			CorrelatedProfile{RackPartitionRate: 0.20, MaxRepeat: 1})},
		NamedFaultPlan{"rack-adversary", rackAdversary},
	)
	return matrix
}

// carryingLinks lists the src ≠ dst links of a routed round that carry
// at least one fact, in ascending (src, dst) order — the sites the
// plan's drop, duplication and corruption faults can hit. A nil or
// empty plan has no fault sites however the shards were cut, so its
// list is empty. Any other plan sits on a cluster that routes one shard
// per source (see WithCheckpoints), where shards[src].Sent[dst] is
// exactly the src→dst transfer size.
func (p *FaultPlan) carryingLinks(shards []Shard) []linkKey {
	if p.Empty() {
		return nil
	}
	var links []linkKey
	for src := range shards {
		for dst, n := range shards[src].Sent {
			if src != dst && n > 0 {
				links = append(links, linkKey{src: src, dst: dst})
			}
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].src != links[j].src {
			return links[i].src < links[j].src
		}
		return links[i].dst < links[j].dst
	})
	return links
}

// retryCompletion is the virtual-clock completion tick of an operation
// that fails `failures` times and then succeeds, where the fault-free
// operation costs `cost` ticks. Attempt k (0-based) launches after
// the previous attempt's failure is detected — one tick after its
// launch — plus an exponential backoff of 2^(k-1) ticks, so the final
// launch happens at tick failures + (2^failures - 1) and completion is
// that plus cost. With failures = 0 this degenerates to cost: the
// fault-free round completes at tick 1 per phase.
func retryCompletion(failures, cost int) int {
	return failures + (1 << failures) - 1 + cost
}
