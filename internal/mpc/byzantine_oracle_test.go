package mpc

import (
	"math/rand"
	"testing"

	"mpclogic/internal/rel"
)

// bruteLegal is the routing contract stated on its own: whether a
// shard covering sources [lo, hi) may deliver f to dst. Kept facts
// belong at the shard's sources, routed ones where Route sends them,
// and a fact Keep or Route panics on nowhere.
func bruteLegal(r Round, p, lo, hi, dst int, f rel.Fact) (legal bool) {
	defer func() {
		if recover() != nil {
			legal = false
		}
	}()
	if r.Keep != nil && r.Keep(f) {
		return lo <= dst && dst < min(hi, p)
	}
	if r.Route == nil {
		return false
	}
	for _, d := range r.Route.Route(f) {
		if d == dst {
			return true
		}
	}
	return false
}

// bruteWitness scans every delivery of shards[from:to] (shard w
// covering sources [w·chunk, (w+1)·chunk)) and returns the
// Fact.Less-minimal illegal one with its shard and destination, the
// lowest (shard, destination) among equal facts.
func bruteWitness(r Round, p, chunk int, shards []Shard, from, to int) (wit rel.Fact, shard, dst int, found bool) {
	for w := from; w < to; w++ {
		for d, out := range shards[w].Outs {
			if out == nil {
				continue
			}
			for _, f := range out.Facts() {
				if bruteLegal(r, p, w*chunk, (w+1)*chunk, d, f) {
					continue
				}
				if !found || f.Less(wit) {
					wit, shard, dst, found = f, w, d, true
				}
			}
		}
	}
	return wit, shard, dst, found
}

// randomRound draws a routing round over p ≥ 2 servers: a hash,
// broadcast, two-server or per-relation route, with or without a Keep.
func randomRound(rng *rand.Rand, p int) Round {
	r := Round{Name: "oracle"}
	switch rng.Intn(4) {
	case 0:
		r.Route = HashOn(p, []int{rng.Intn(2)}, rng.Uint64())
	case 1:
		r.Route = Broadcast(p)
	case 2:
		seed := rng.Uint64()
		r.Route = RouterFunc(func(f rel.Fact) []int {
			h := int((f.Tuple.Hash() ^ seed) % uint64(p))
			if h == p-1 {
				return []int{0, h}
			}
			return []int{h, h + 1}
		})
	default:
		r.Route = ByRelation(map[string]Router{"R": HashOn(p, []int{0}, 3), "S": Broadcast(p)})
	}
	switch rng.Intn(3) {
	case 0:
		r.Keep = func(f rel.Fact) bool { return f.Rel == "S" }
	case 1:
		// Panics on a unary fact (what an empty server forges).
		r.Keep = func(f rel.Fact) bool { return f.Tuple[1]%3 == 0 }
	}
	return r
}

// The exhaustive pass of routing verification names the witness a
// brute-force scan of the deliveries finds, with the same (shard,
// destination) and the same attribution, on random rounds whose shards
// a Byzantine source corrupted, at one source per shard and at several,
// checked under the round that routed them or under one whose Route
// panics on some facts.
func TestMisplacedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	caught := map[ByzKind]int{}
	for trial := 0; trial < 400; trial++ {
		p := 2 + rng.Intn(5)
		chunk := 1 + rng.Intn(3)
		load := rel.NewInstance()
		for k := 4 + rng.Intn(24); k > 0; k-- {
			name := []string{"R", "S"}[rng.Intn(2)]
			load.Add(rel.NewFact(name, rel.Value(rng.Intn(12)), rel.Value(rng.Intn(12))))
		}
		c := NewCluster(p)
		c.LoadRoundRobin(load)
		facts := load.Facts()
		for k := rng.Intn(8); k > 0; k-- {
			// A copy on a second server: a witness may have several
			// holders in its shard's range.
			c.LoadAt(rng.Intn(p), rel.FromFacts(facts[rng.Intn(len(facts))]))
		}
		r := randomRound(rng, p)
		shards, err := c.routePhase(r, chunk)
		if err != nil {
			t.Fatal(err)
		}
		for w := range shards {
			if rng.Intn(2) == 0 {
				src := w * chunk
				ev := ByzantineEvent{Src: src, Kind: ByzKind(rng.Intn(3)), Count: 1 + rng.Intn(3), Seed: rng.Int63()}
				applyByzEvent(r, p, src, &shards[w], ev, c.servers[src])
			}
		}
		checked := r
		if rng.Intn(3) == 0 {
			route := r.Route
			checked.Route = RouterFunc(func(f rel.Fact) []int {
				if f.Tuple[0]%5 == 0 {
					panic("route refuses the fact")
				}
				return route.Route(f)
			})
		}
		from, to := 0, len(shards)
		if rng.Intn(2) == 0 {
			from = rng.Intn(len(shards)) // one shard, as the Byzantine audit asks
			to = from + 1
		}
		got := c.misplaced(trial, checked, shards, chunk, from, to)
		wit, shard, dst, found := bruteWitness(checked, p, chunk, shards, from, to)
		if !found {
			if got != nil {
				t.Fatalf("trial %d: misplaced accuses %v, brute force finds nothing", trial, got)
			}
			continue
		}
		if got == nil {
			t.Fatalf("trial %d: brute force finds %v at shard %d → %d, misplaced nothing", trial, wit, shard, dst)
		}
		lo, hi := shard*chunk, min((shard+1)*chunk, p)
		accused, kind := lo, Forge
		for s := lo; s < hi; s++ {
			if c.servers[s].Contains(wit) {
				accused, kind = s, Misroute
				break
			}
		}
		want := RoutingIntegrityError{Round: trial, RoundName: "oracle", Accused: accused, Dst: dst, Kind: kind, Witness: wit}
		if got.Error() != want.Error() || !got.Witness.Equal(wit) || got.Accused/chunk != shard {
			t.Fatalf("trial %d (p=%d, chunk=%d):\n got %v\nwant %v", trial, p, chunk, got, &want)
		}
		caught[kind]++
	}
	if caught[Misroute] < 20 || caught[Forge] < 20 {
		t.Fatalf("the oracle is nearly vacuous: %v", caught)
	}
}
