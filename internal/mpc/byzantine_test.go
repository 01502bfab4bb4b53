package mpc

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"mpclogic/internal/rel"
)

// byzProgram is a two-round hash-routed program with enough facts that
// every server routes cross-network traffic in round 0.
func byzProgram(p int) (load *rel.Instance, rounds []Round) {
	d := rel.NewDict()
	load = rel.NewInstance()
	for _, s := range []string{
		"R(a,b)", "R(b,c)", "R(c,d)", "R(d,e)", "R(e,f)", "R(f,g)",
		"S(a,x)", "S(b,y)", "S(c,z)", "S(d,w)", "S(e,v)", "S(f,u)",
	} {
		load.AddAll(rel.MustInstance(d, s))
	}
	rounds = []Round{
		{Name: "hash0", Route: HashOn(p, []int{0}, 7)},
		{Name: "hash1", Route: HashOn(p, []int{1}, 11)},
	}
	return load, rounds
}

// runByz executes the program fault-free and under the given plan,
// returning (baseline output, baseline trace, faulty cluster, error).
func runByz(t *testing.T, p int, plan *FaultPlan) (string, string, *Cluster, error) {
	t.Helper()
	load, rounds := byzProgram(p)

	base := NewCluster(p)
	base.LoadRoundRobin(load)
	if err := base.Run(rounds...); err != nil {
		t.Fatalf("fault-free run failed: %v", err)
	}

	faulty := NewCluster(p, WithFaultPlan(plan))
	faulty.LoadRoundRobin(load)
	err := faulty.Run(rounds...)
	return base.Output().String(), base.LogicalTrace(), faulty, err
}

func TestByzantineTransientQuarantine(t *testing.T) {
	for _, kind := range []ByzKind{Misroute, Forge, Omit} {
		t.Run(kind.String(), func(t *testing.T) {
			plan := NewFaultPlan().
				AddByzantine(ByzantineEvent{Round: 0, Src: 1, Kind: kind, Count: 2, Seed: 101})
			out, trace, faulty, err := runByz(t, 4, plan)
			if err != nil {
				t.Fatalf("transient %s not recovered: %v", kind, err)
			}
			if got := faulty.Output().String(); got != out {
				t.Errorf("output diverged under transient %s:\n got %s\nwant %s", kind, got, out)
			}
			if got := faulty.LogicalTrace(); got != trace {
				t.Errorf("logical trace diverged under transient %s:\n got %q\nwant %q", kind, got, trace)
			}
			tot := faulty.RecoveryTotals()
			if tot.Quarantined == 0 || tot.Retries == 0 || tot.ReplicaComm == 0 {
				t.Errorf("audit did not fire for %s: %+v", kind, tot)
			}
			// The quarantine shows up in the human-readable stats but
			// never in the logical ones.
			if !strings.Contains(faulty.Stats()[0].String(), "quarantined 1") {
				t.Errorf("stats missing quarantine: %s", faulty.Stats()[0])
			}
			if strings.Contains(faulty.Stats()[0].LogicalString(), "quarantined") {
				t.Errorf("logical stats leaked recovery detail: %s", faulty.Stats()[0].LogicalString())
			}
		})
	}
}

func TestByzantinePersistentMisrouteFailsTyped(t *testing.T) {
	plan := NewFaultPlan().
		AddByzantine(ByzantineEvent{Round: 0, Src: 1, Kind: Misroute, Count: 1, Seed: 33, Persistent: true})
	_, _, faulty, err := runByz(t, 4, plan)
	var rie *RoutingIntegrityError
	if !errors.As(err, &rie) {
		t.Fatalf("want RoutingIntegrityError, got %v", err)
	}
	if rie.Accused != 1 || rie.Kind != Misroute || rie.Round != 0 {
		t.Errorf("wrong accusation: %+v", rie)
	}
	// The witness is a real fact of the accused server, shipped to a
	// destination the router never named.
	if !faulty.Server(1).Contains(rie.Witness) {
		t.Errorf("witness %v is not held by the accused server", rie.Witness)
	}
	// Atomicity: the failed round left no state or stats behind.
	if faulty.Rounds() != 0 {
		t.Errorf("failed round recorded stats")
	}
	if !strings.Contains(err.Error(), "routing integrity violation") ||
		!strings.Contains(err.Error(), "misrouted") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestByzantinePersistentForgeFailsTyped(t *testing.T) {
	plan := NewFaultPlan().
		AddByzantine(ByzantineEvent{Round: 0, Src: 0, Kind: Forge, Count: 2, Seed: 55, Persistent: true})
	_, _, faulty, err := runByz(t, 4, plan)
	var rie *RoutingIntegrityError
	if !errors.As(err, &rie) {
		t.Fatalf("want RoutingIntegrityError, got %v", err)
	}
	if rie.Accused != 0 || rie.Kind != Forge {
		t.Errorf("wrong accusation: %+v", rie)
	}
	if faulty.Server(0).Contains(rie.Witness) {
		t.Errorf("forged witness %v exists on the accused server", rie.Witness)
	}
}

// TestByzantineWitnessIsMinimal: the reported witness must be the
// Fact.Less-minimal illegally placed fact, independent of how many
// facts were corrupted.
func TestByzantineWitnessIsMinimal(t *testing.T) {
	plan := NewFaultPlan().
		AddByzantine(ByzantineEvent{Round: 0, Src: 1, Kind: Misroute, Count: 3, Seed: 77, Persistent: true})
	_, _, _, err := runByz(t, 4, plan)
	var rie *RoutingIntegrityError
	if !errors.As(err, &rie) {
		t.Fatalf("want RoutingIntegrityError, got %v", err)
	}
	// Re-derive the corrupted shard and find its minimal illegal
	// delivery by brute force.
	load, rounds := byzProgram(4)
	c := NewCluster(4)
	c.LoadRoundRobin(load)
	shards := make([]Shard, 4)
	var rerr error
	shards[1], rerr = RouteSource(rounds[0], 4, 1, c.Server(1))
	if rerr != nil {
		t.Fatal(rerr)
	}
	applyByzEvent(rounds[0], 4, 1, &shards[1], ByzantineEvent{Round: 0, Src: 1, Kind: Misroute, Count: 3, Seed: 77, Persistent: true}, c.Server(1))
	w, _, dst, found := bruteWitness(rounds[0], 4, 1, shards, 1, 2)
	if !found {
		t.Fatal("no witness in re-derived corrupted shard")
	}
	if !w.Equal(rie.Witness) || dst != rie.Dst {
		t.Errorf("reported witness %v bound for %d, minimal witness %v bound for %d", rie.Witness, rie.Dst, w, dst)
	}
}

func TestByzantineMatrixInPackage(t *testing.T) {
	p := 4
	load, rounds := byzProgram(p)
	base := NewCluster(p)
	base.LoadRoundRobin(load)
	if err := base.Run(rounds...); err != nil {
		t.Fatal(err)
	}
	out, trace := base.Output().String(), base.LogicalTrace()

	for _, np := range ByzantineFaultMatrix(900, len(rounds), p) {
		t.Run(np.Name, func(t *testing.T) {
			c := NewCluster(p, WithFaultPlan(np.Plan))
			c.LoadRoundRobin(load)
			err := c.Run(rounds...)
			if !np.Plan.Persistent() {
				if err != nil {
					t.Fatalf("recoverable plan failed: %v", err)
				}
				if c.Output().String() != out || c.LogicalTrace() != trace {
					t.Errorf("recoverable plan diverged from fault-free run")
				}
				if c.RecoveryTotals().Quarantined == 0 {
					t.Errorf("recoverable plan fired no quarantine (vacuous)")
				}
			} else {
				var rie *RoutingIntegrityError
				if !errors.As(err, &rie) {
					t.Fatalf("unrecoverable plan: want RoutingIntegrityError, got %v", err)
				}
			}
		})
	}
}

// TestOnePlanCarriesBothFaultModels: crash-stop, link and Byzantine
// faults scheduled in one plan, on the same round and the same source,
// are each repaired — the liar quarantined, its partitioned links
// retransmitted, its crash re-executed — and the run is byte-identical
// to fault-free.
func TestOnePlanCarriesBothFaultModels(t *testing.T) {
	plan := NewFaultPlan().
		AddByzantine(ByzantineEvent{Round: 0, Src: 1, Kind: Misroute, Count: 2, Seed: 101}).
		AddGroupPartition(0, []int{1}, 4, 1).
		AddCrash(1, 1, 1)
	out, trace, c, err := runByz(t, 4, plan)
	if err != nil {
		t.Fatalf("mixed plan not recovered: %v", err)
	}
	if c.Output().String() != out || c.LogicalTrace() != trace {
		t.Errorf("mixed plan diverged from the fault-free run")
	}
	if r := c.RecoveryTotals(); r.Quarantined != 1 || r.RecoveredServers != 1 || r.Retries < 3 {
		t.Errorf("mixed plan repaired %+v, want one quarantine, one recovered server and ≥ 3 retries", r)
	}
}

// twoFacedRouter misroutes its first call and answers honestly on
// every re-ask — the receiver-side verification's re-question must
// catch the disagreement even though routing itself "succeeded".
type twoFacedRouter struct {
	p     int
	calls atomic.Int64
}

func (r *twoFacedRouter) Route(f rel.Fact) []int {
	honest := int(f.Tuple.Hash() % uint64(r.p))
	if r.calls.Add(1) == 1 {
		return []int{(honest + 1) % r.p}
	}
	return []int{honest}
}

func TestRoutingVerificationCatchesTwoFacedRouter(t *testing.T) {
	d := rel.NewDict()
	load := rel.MustInstance(d, "R(a,b)", "R(b,c)", "R(c,d)", "R(d,e)")
	c := NewCluster(2, WithRoutingVerification(1))
	c.LoadRoundRobin(load)
	_, err := c.RunRound(Round{Name: "lie", Route: &twoFacedRouter{p: 2}})
	var rie *RoutingIntegrityError
	if !errors.As(err, &rie) {
		t.Fatalf("want RoutingIntegrityError, got %v", err)
	}
	if c.Rounds() != 0 {
		t.Errorf("failed round recorded stats")
	}
}

// TestRoutingVerificationFaultFreeIdentical: with verification enabled
// on an honest cluster, outputs and traces are byte-identical to the
// unverified run at both shard granularities.
func TestRoutingVerificationFaultFreeIdentical(t *testing.T) {
	for _, every := range []int{1, 3} {
		load, rounds := byzProgram(5)
		plain := NewCluster(5)
		plain.LoadRoundRobin(load)
		if err := plain.Run(rounds...); err != nil {
			t.Fatal(err)
		}
		verified := NewCluster(5, WithRoutingVerification(every))
		verified.LoadRoundRobin(load)
		if err := verified.Run(rounds...); err != nil {
			t.Fatalf("verification rejected an honest run (stride %d): %v", every, err)
		}
		if verified.Output().String() != plain.Output().String() ||
			verified.LogicalTrace() != plain.LogicalTrace() {
			t.Errorf("verification changed an honest run (stride %d)", every)
		}

		verifiedFT := NewCluster(5, WithRoutingVerification(every), WithCheckpoints())
		verifiedFT.LoadRoundRobin(load)
		if err := verifiedFT.Run(rounds...); err != nil {
			t.Fatalf("FT-path verification rejected an honest run: %v", err)
		}
		if verifiedFT.LogicalTrace() != plain.LogicalTrace() {
			t.Errorf("FT-path verification changed an honest run")
		}
	}
}

// TestByzantineWithKeepRound: legality must treat Keep facts as legal
// only at their own source, and quarantine must restore them.
func TestByzantineWithKeepRound(t *testing.T) {
	d := rel.NewDict()
	load := rel.MustInstance(d, "R(a,b)", "R(b,c)", "S(a,x)", "S(b,y)")
	keepR := func(f rel.Fact) bool { return f.Rel == "R" }
	r := Round{Name: "keep", Route: HashOn(3, []int{0}, 5), Keep: keepR}

	base := NewCluster(3)
	base.LoadRoundRobin(load)
	if _, err := base.RunRound(r); err != nil {
		t.Fatal(err)
	}

	plan := NewFaultPlan().
		AddByzantine(ByzantineEvent{Round: 0, Src: 0, Kind: Misroute, Count: 1, Seed: 9})
	faulty := NewCluster(3, WithFaultPlan(plan))
	faulty.LoadRoundRobin(load)
	if _, err := faulty.RunRound(r); err != nil {
		t.Fatalf("keep-round quarantine failed: %v", err)
	}
	if faulty.Output().String() != base.Output().String() {
		t.Errorf("keep-round output diverged")
	}
}
