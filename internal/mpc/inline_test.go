package mpc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mpclogic/internal/rel"
)

// TestInlineSizeChangesNoResult: a round's phases run inline up to
// inlineFacts facts and fan out above it, and on either side of the
// constant a round is the standalone per-server steps run one after
// another — RouteSource for every source, MergeInbox for every
// destination over those one-source shards, ComputeServer for every
// server. The inboxes are the same (encoded bytes, Each order and each
// relation's own order), so are the RoundStats and the error text, for
// an ok round, a round with an out-of-range route, one whose Router
// panics and one whose Compute panics.
func TestInlineSizeChangesNoResult(t *testing.T) {
	const p = 5
	if phaseWorkers(inlineFacts) != 1 || phaseWorkers(inlineFacts+1) == 1 {
		t.Fatalf("phaseWorkers(%d) = %d, phaseWorkers(%d) = %d: the sizes below do not straddle the inline rule",
			inlineFacts, phaseWorkers(inlineFacts), inlineFacts+1, phaseWorkers(inlineFacts+1))
	}
	hash := HashOn(p, []int{0}, 7)
	for _, facts := range []int{inlineFacts, inlineFacts + 1} {
		input := rel.NewInstance()
		for i := 0; i < facts; i++ {
			input.Add(rel.Fact{Rel: []string{"R", "S"}[i%2], Tuple: rel.Tuple{rel.Value(i * 7 % facts), rel.Value(i)}})
		}
		for _, c := range []struct {
			name    string
			route   Router
			compute func(server int) // panics where the round's Compute should
		}{
			{"ok", hash, func(int) {}},
			{"bad-route", RouterFunc(func(f rel.Fact) []int {
				if f.Tuple[0]%89 == 5 {
					return []int{p + int(f.Tuple[1])%3}
				}
				return hash.Route(f)
			}), func(int) {}},
			{"router-panics", RouterFunc(func(f rel.Fact) []int {
				if f.Tuple[0]%97 == 3 {
					panic(fmt.Sprintf("no route for %v", f))
				}
				return hash.Route(f)
			}), func(int) {}},
			{"compute-panics", hash, func(server int) {
				if server >= 2 {
					panic(fmt.Sprintf("server %d gives up", server))
				}
			}},
		} {
			t.Run(fmt.Sprintf("%s/%d", c.name, facts), func(t *testing.T) {
				// seen[s] is what server s's Compute was given, in
				// the cluster's run and then in the standalone one.
				seen := make([]string, p)
				r := Round{Name: c.name, Route: c.route, Compute: func(server int, in *rel.Instance) *rel.Instance {
					c.compute(server)
					seen[server] = inboxImage(in)
					return in
				}}

				cl := NewCluster(p)
				cl.LoadRoundRobin(input)
				gotStats, gotErr := cl.RunRound(r)
				gotSeen := append([]string(nil), seen...)
				clear(seen)

				wantStats, wantErr := standaloneRound(r, p, input)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("the cluster's error\n\t%v\nthe standalone steps'\n\t%v", gotErr, wantErr)
				}
				if (wantErr == nil) != (c.name == "ok") {
					t.Fatalf("round %s failed with %v", c.name, wantErr)
				}
				if wantErr != nil {
					return
				}
				if !reflect.DeepEqual(gotStats, wantStats) {
					t.Errorf("stats %+v, the standalone steps' %+v", gotStats, wantStats)
				}
				for s := 0; s < p; s++ {
					if gotSeen[s] != seen[s] {
						t.Errorf("server %d's inbox differs from the standalone merge's:\n%.300s\nvs\n%.300s", s, gotSeen[s], seen[s])
					}
				}
			})
		}
	}
}

// standaloneRound runs round r over input dealt round-robin to p
// servers the way a remote worker runs its share, one server at a
// time: RouteSource per source, MergeInbox per destination over the
// one-source shards, ComputeServer per server, each phase reporting
// its lowest server's error.
func standaloneRound(r Round, p int, input *rel.Instance) (RoundStats, error) {
	servers := make([]*rel.Instance, p)
	for i := range servers {
		servers[i] = rel.NewInstance()
	}
	DealRoundRobin(input, servers, 0)
	shards := make([]Shard, p)
	for src := range shards {
		sh, err := RouteSource(r, p, src, servers[src])
		if err != nil {
			return RoundStats{}, err
		}
		shards[src] = sh
	}
	stats := RoundStats{Name: r.Name, Received: make([]int, p), DeltaComm: deltaSent(shards), VirtualMakespan: 2}
	inboxes := make([]*rel.Instance, p)
	for dst := range inboxes {
		inbox, n, err := MergeInbox(dst, p, func(w int) *Shard { return &shards[w] }, nil)
		if err != nil {
			return RoundStats{}, err
		}
		inboxes[dst], stats.Received[dst] = inbox, n
	}
	stats.MaxLoad, stats.TotalComm = loadOf(stats.Received)
	for s, inbox := range inboxes {
		if _, err := ComputeServer(r, s, inbox); err != nil {
			return RoundStats{}, err
		}
	}
	return stats, nil
}

// inboxImage renders an inbox three ways: its canonical encoding, its
// facts in Each order, and every relation's tuples in their own stored
// order (Relation.Each), which the merge fixes and the encoding hides.
func inboxImage(in *rel.Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%x\n", rel.EncodeInstance(in))
	in.Each(func(f rel.Fact) bool {
		fmt.Fprintf(&b, "%v ", f)
		return true
	})
	for _, name := range in.RelationNames() {
		fmt.Fprintf(&b, "\n%s:", name)
		in.Relation(name).Each(func(tu rel.Tuple) bool {
			fmt.Fprintf(&b, " %v", tu)
			return true
		})
	}
	return b.String()
}
