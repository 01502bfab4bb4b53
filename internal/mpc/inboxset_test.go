package mpc

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mpclogic/internal/rel"
)

// Routing appends to an outbox, and the merge to an inbox, only what it
// has proven distinct there (routeServer, MergeInbox). These are the
// cases where a fact reaches one destination twice, each of which must
// still deliver a set: the duplicate would otherwise inflate Len and
// make the inbox's first table build panic.

// setConfigs are the shard granularities the laws below run under: one
// shard of every source, and one shard per source.
var setConfigs = []struct {
	name  string
	procs int
	opts  []Option
}{
	{"one shard", 1, nil},
	{"shard per source", 4, []Option{WithCheckpoints()}},
}

// wantInboxes is the round's delivery as sets, built by Add: every
// copy of every fact, from wherever it sits, to every server its
// route names.
func wantInboxes(c *Cluster, route Router) []*rel.Instance {
	want := make([]*rel.Instance, c.P())
	for d := range want {
		want[d] = rel.NewInstance()
	}
	for s := 0; s < c.P(); s++ {
		for _, f := range c.Server(s).Facts() {
			for _, d := range route.Route(f) {
				want[d].Add(f)
			}
		}
	}
	return want
}

// checkSets holds every server of c to want, as a set: the same Len
// (a duplicate counts twice in it) and the same facts, asked in both
// directions so each side builds its table.
func checkSets(t *testing.T, c *Cluster, want []*rel.Instance) {
	t.Helper()
	for d := range want {
		got := c.Server(d)
		if got.Len() != want[d].Len() || !got.Equal(want[d]) || !want[d].Equal(got) {
			t.Fatalf("server %d holds %d facts %v, want the set of %d %v", d, got.Len(), got, want[d].Len(), want[d])
		}
	}
}

// TestOverlappingFragmentsDeliverSets: with no Owner, fragments that
// share facts are routed from several sources of one shard (GOMAXPROCS
// 1) or of several, and a fact every holder routes to one destination
// lands there once.
func TestOverlappingFragmentsDeliverSets(t *testing.T) {
	for _, cfg := range setConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.procs))
			r := rand.New(rand.NewSource(11))
			for trial := 0; trial < 20; trial++ {
				p := 2 + r.Intn(6)
				c := NewCluster(p, cfg.opts...)
				imageOf(c, randomPlacement(p, r.Uint64()), randomFacts(r, 20+r.Intn(150)))
				route := randomPlacement(p, r.Uint64())
				want := wantInboxes(c, route)
				if _, err := c.RunRound(Round{Name: "overlap", Route: route}); err != nil {
					t.Fatal(err)
				}
				checkSets(t, c, want)
			}
		})
	}
}

// TestRepeatedDestinationDeliversOnce: a Router that names a
// destination twice delivers the fact there once, and the round counts
// both — Received counts every listing — with and without an Owner.
func TestRepeatedDestinationDeliversOnce(t *testing.T) {
	const p = 4
	route := RouterFunc(func(f rel.Fact) []int {
		d := int(f.Tuple[0]) % p
		return []int{d, (d + 1) % p, d, 0, (d + 1) % p}
	})
	for _, cfg := range setConfigs {
		for _, owned := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/owner=%v", cfg.name, owned), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.procs))
				facts := randomFacts(rand.New(rand.NewSource(3)), 120)
				c := NewCluster(p, cfg.opts...)
				c.LoadRoundRobin(facts)
				want := wantInboxes(c, route)
				round := Round{Name: "repeat", Route: route}
				if owned {
					round.Owner = perFact(func(rel.Fact) int { return -1 })
				}
				stats, err := c.RunRound(round)
				if err != nil {
					t.Fatal(err)
				}
				received := make([]int, p)
				for _, f := range facts.Facts() {
					for _, d := range route.Route(f) {
						received[d]++
					}
				}
				for d := range received {
					if stats.Received[d] != received[d] {
						t.Fatalf("received %v, want %v", stats.Received, received)
					}
				}
				checkSets(t, c, want)
			})
		}
	}
}

// TestKeptAndOwnedCopyLandOnce: under Keep and Owner, one source keeps
// its copy of f at A while another owns f and routes it to A — Keep
// here tells the copies apart, as a Keep that reads anything but the
// fact may. A receives f once, whether both sources share a shard or
// not.
func TestKeptAndOwnedCopyLandOnce(t *testing.T) {
	const p = 3
	for _, cfg := range setConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.procs))
			c := NewCluster(p, cfg.opts...)
			both := rel.NewInstance()
			for v := 0; v < 50; v++ {
				both.Add(rel.NewFact("R", rel.Value(v), rel.Value(v%7)))
			}
			c.LoadAt(0, both)
			c.LoadAt(1, both)
			keptAt0 := map[*rel.Value]bool{}
			c.Server(0).Relation("R").Each(func(t rel.Tuple) bool {
				keptAt0[&t[0]] = true
				return true
			})
			round := Round{
				Name:  "keep and own",
				Route: RouterFunc(func(rel.Fact) []int { return []int{0} }),
				Keep:  func(f rel.Fact) bool { return keptAt0[&f.Tuple[0]] },
				Owner: perFact(func(rel.Fact) int { return 1 }),
			}
			stats, err := c.RunRound(round)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Received[0] != both.Len() || stats.TotalComm != both.Len() {
				t.Fatalf("received %v, want %d at server 0 alone", stats.Received, both.Len())
			}
			checkSets(t, c, []*rel.Instance{both, rel.NewInstance(), rel.NewInstance()})
		})
	}
}
