package mpc

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mpclogic/internal/rel"
)

// randomPlacement returns a placement ρ of facts on p servers — one to
// three distinct servers per fact, a pure function of the fact and the
// seed — as a Router.
func randomPlacement(p int, seed uint64) Router {
	return RouterFunc(func(f rel.Fact) []int {
		h := rel.Mix64(f.Hash() ^ seed)
		var out []int
		for k := uint64(0); k <= h%3; k++ {
			if s := int(rel.Mix64(h+k) % uint64(p)); !slices.Contains(out, s) {
				out = append(out, s)
			}
		}
		return out
	})
}

// perFact writes a per-fact owner in Round.Owner's per-relation form:
// each relation's owner function asks owner of the whole fact.
func perFact(owner func(rel.Fact) int) func(string, int) func(rel.Tuple) int {
	return func(name string, _ int) func(rel.Tuple) int {
		return func(t rel.Tuple) int { return owner(rel.Fact{Rel: name, Tuple: t}) }
	}
}

// least is Owner = min ρ(f), with the shortcut the field's contract
// allows: a fact ρ places once is owned wherever it sits.
func least(ρ Router) func(rel.Fact) int {
	return func(f rel.Fact) int {
		ts := ρ.Route(f)
		if len(ts) == 1 {
			return -1
		}
		return slices.Min(ts)
	}
}

// imageOf loads the image of ρ: server s holds f iff s ∈ ρ(f).
func imageOf(c *Cluster, ρ Router, facts *rel.Instance) {
	for _, f := range facts.Facts() {
		for _, s := range ρ.Route(f) {
			c.LoadAt(s, rel.FromFacts(f))
		}
	}
}

func randomFacts(r *rand.Rand, n int) *rel.Instance {
	inst := rel.NewInstance()
	for i := 0; i < n; i++ {
		switch r.Intn(3) {
		case 0:
			inst.Add(rel.NewFact("R", rel.Value(r.Intn(40)), rel.Value(r.Intn(40))))
		case 1:
			inst.Add(rel.NewFact("S", rel.Value(r.Intn(40)), rel.Value(r.Intn(40))))
		default:
			inst.Add(rel.NewFact("T", rel.Value(r.Intn(200))))
		}
	}
	return inst
}

// TestOwnerRoutesEachDistinctFactOnce is the law on Round.Owner: on a
// layout that is the image of a placement ρ, a round with Owner = min
// ρ(f) records the same Received, MaxLoad and TotalComm, and delivers
// the same inboxes as sets, as the same round run with no Owner from
// duplicate-free layouts of the same facts — round-robin, everything on
// one server, every fact at max ρ(f) — whatever the shard granularity:
// one shard per worker at GOMAXPROCS 1 and 4, one per source on a
// cluster built WithCheckpoints, with receiver-side verification and a
// Byzantine source's audited re-execution (RouteSource) on the way.
func TestOwnerRoutesEachDistinctFactOnce(t *testing.T) {
	byz := NewFaultPlan().AddByzantine(ByzantineEvent{Round: 0, Src: 1, Kind: Misroute, Count: 2, Seed: 3})
	configs := []struct {
		name  string
		procs int
		opts  []Option
	}{
		{"one worker", 1, nil},
		{"four workers", 4, nil},
		{"shard per source", 4, []Option{WithCheckpoints(), WithRoutingVerification(1)}},
		{"audited", 1, []Option{WithFaultPlan(byz)}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.procs))
			r := rand.New(rand.NewSource(5))
			for trial := 0; trial < 40; trial++ {
				p := 1 + r.Intn(7)
				if cfg.name == "audited" {
					p += 2 // the plan's source must exist
				}
				facts := randomFacts(r, 20+r.Intn(200))
				ρ := randomPlacement(p, r.Uint64())
				round := Round{Name: "next", Route: randomPlacement(p, r.Uint64())}
				if trial%4 == 0 {
					round.Keep = func(f rel.Fact) bool { return f.Rel == "T" }
				}

				owned := NewCluster(p, cfg.opts...)
				imageOf(owned, ρ, facts)
				if owned.Output().Len() != facts.Len() {
					t.Fatal("the image lost a fact")
				}
				withOwner := round
				withOwner.Owner = perFact(least(ρ))
				rr, err := owned.RouteRound(withOwner)
				if err != nil {
					t.Fatal(err)
				}
				kept := 0
				if round.Keep != nil && facts.Relation("T") != nil {
					kept = facts.Relation("T").Len()
				}
				if rr.Routed != facts.Len()-kept {
					t.Fatalf("trial %d: routed %d facts of %d distinct (%d kept)", trial, rr.Routed, facts.Len(), kept)
				}
				got, err := owned.Deliver(rr)
				if err != nil {
					t.Fatal(err)
				}

				layouts := map[string]func(*Cluster){
					"round-robin": func(c *Cluster) { c.LoadRoundRobin(facts) },
					"one server":  func(c *Cluster) { c.LoadAt(p-1, facts) },
					"at max ρ": func(c *Cluster) {
						imageOf(c, RouterFunc(func(f rel.Fact) []int { return []int{slices.Max(ρ.Route(f))} }), facts)
					},
				}
				for name, load := range layouts {
					if round.Keep != nil {
						// Keep leaves a fact where it sits, so only the
						// routed relations compare across layouts.
						continue
					}
					flat := NewCluster(p)
					load(flat)
					want, err := flat.RunRound(round)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Received, want.Received) || got.MaxLoad != want.MaxLoad || got.TotalComm != want.TotalComm {
						t.Fatalf("trial %d, p=%d: owned round received %v, the %s layout %v", trial, p, got.Received, name, want.Received)
					}
					for s := 0; s < p; s++ {
						if !owned.Server(s).Equal(flat.Server(s)) {
							t.Fatalf("trial %d: server %d holds %v, from the %s layout %v", trial, s, owned.Server(s), name, flat.Server(s))
						}
					}
				}
				if round.Keep != nil {
					// Every copy of a kept fact stays where ρ put it,
					// uncounted; the rest is placed by Route, once.
					total := 0
					want := make([]*rel.Instance, p)
					for s := range want {
						want[s] = rel.NewInstance()
					}
					for _, f := range facts.Facts() {
						on := ρ.Route(f)
						if f.Rel != "T" {
							on = round.Route.Route(f)
							total += len(on)
						}
						for _, s := range on {
							want[s].Add(f)
						}
					}
					if got.TotalComm != total {
						t.Fatalf("trial %d: comm %d with Keep, want %d", trial, got.TotalComm, total)
					}
					for s := 0; s < p; s++ {
						if !owned.Server(s).Equal(want[s]) {
							t.Fatalf("trial %d: server %d holds %v with Keep, want %v", trial, s, owned.Server(s), want[s])
						}
					}
				}
			}
		})
	}
}

// TestOwnerThatHoldsNoCopyLosesTheFact: an Owner naming a server the
// fact is not on means nobody routes it. The round runs — mpc cannot
// know the layout is not the placement's image — but the routed-fact
// count is short by exactly those facts, which is what a caller that
// knows its fact count checks before it delivers.
func TestOwnerThatHoldsNoCopyLosesTheFact(t *testing.T) {
	const p = 4
	facts := randomFacts(rand.New(rand.NewSource(9)), 120)
	ρ := randomPlacement(p, 77)
	c := NewCluster(p)
	imageOf(c, ρ, facts)
	elsewhere := func(f rel.Fact) bool { return f.Rel == "R" && f.Tuple[0]%5 == 0 }
	lost := 0
	for _, f := range facts.Facts() {
		if elsewhere(f) {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("no fact to lose")
	}
	honest := least(ρ)
	rr, err := c.RouteRound(Round{Name: "lossy", Route: HashOn(p, []int{0}, 1), Owner: perFact(func(f rel.Fact) int {
		if elsewhere(f) {
			for s := 0; ; s++ {
				if !c.Server(s).Contains(f) {
					return s // ρ places on at most three of four servers
				}
			}
		}
		return honest(f)
	})})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Routed != facts.Len()-lost || rr.TotalComm != facts.Len()-lost {
		t.Fatalf("routed %d facts and shipped %d of %d with %d orphaned", rr.Routed, rr.TotalComm, facts.Len(), lost)
	}
}

// TestBadRouteUnderOwnerNamesAnOwnedFact: the Less-minimal offender of
// an out-of-range error is sought among the facts the source owns — a
// copy it does not own is never routed, so it cannot offend, met before
// the first offender or (the probing pass) after it.
func TestBadRouteUnderOwnerNamesAnOwnedFact(t *testing.T) {
	c := NewCluster(2)
	for s := 0; s < 2; s++ {
		c.LoadAt(s, rel.FromFacts(rel.NewFact("R", 3), rel.NewFact("R", 2), rel.NewFact("R", 1)))
	}
	// Every route is out of range and server 0 errs first. It owns R(2)
	// alone: R(3) comes before it in enumeration order, R(1) after and is
	// the smaller fact, and both are server 1's to route.
	_, err := c.RouteRound(Round{
		Name:  "bad",
		Route: RouterFunc(func(rel.Fact) []int { return []int{9} }),
		Owner: perFact(func(f rel.Fact) int { return int(f.Tuple[0]) % 2 }),
	})
	if want := fmt.Sprintf("mpc: route of %v targets server 9 outside [0,2)", rel.NewFact("R", 2)); err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
}

// TestSuccessorSharesFragmentsNotHistory: a successor starts with c's
// fragments by reference, c's options and no rounds; a round on it —
// routed and dropped, or delivered — leaves c byte for byte as it was,
// and records what the same round records on c.
func TestSuccessorSharesFragmentsNotHistory(t *testing.T) {
	const p = 4
	load, rounds := byzProgram(p)
	for _, opts := range [][]Option{nil, {WithCheckpoints(), WithRoutingVerification(1)}} {
		c := NewCluster(p, opts...)
		c.LoadRoundRobin(load)
		if _, err := c.RunRound(rounds[0]); err != nil {
			t.Fatal(err)
		}
		before := clusterImage(t, c)
		next := c.Successor()
		if next.Rounds() != 0 || next.Checkpoint().Rounds() != 0 {
			t.Fatalf("a successor starts with %d rounds of history", next.Rounds())
		}
		for s := 0; s < p; s++ {
			if next.Server(s) != c.Server(s) {
				t.Fatalf("server %d was copied", s)
			}
		}
		rr, err := next.RouteRound(rounds[1])
		if err != nil {
			t.Fatal(err)
		}
		if wantChunk := map[bool]int{true: 1, false: c.defaultChunk()}[opts != nil]; rr.chunk != wantChunk {
			t.Errorf("successor routed %d sources a shard, want %d", rr.chunk, wantChunk)
		}
		if _, err := next.RunRound(rounds[1]); err != nil {
			t.Fatal(err)
		}
		if after := clusterImage(t, c); after != before {
			t.Fatalf("a round on the successor changed the cluster it came from")
		}
		if _, err := c.RunRound(rounds[1]); err != nil {
			t.Fatal(err)
		}
		if got, want := next.LastStats(), c.LastStats(); !reflect.DeepEqual(got, want) || next.Rounds() != 1 {
			t.Errorf("the successor recorded %+v after %d rounds, the cluster %+v", got, next.Rounds(), want)
		}
		if !next.Output().Equal(c.Output()) {
			t.Errorf("the successor holds %v, the cluster %v", next.Output(), c.Output())
		}
	}
}
