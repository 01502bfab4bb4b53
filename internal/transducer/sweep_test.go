package transducer

import (
	"testing"

	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// Seed-sweep regression: every example program, under every scheduler
// in the matrix, with duplication off and on, across many seeds, must
// produce an output byte-identical to the centralized answer. This is
// the sampled complement of the exhaustive explorer: larger instances,
// more nodes, fault injection — breadth where the explorer has depth.
//
// -short trims the sweep to a handful of seeds; the full ≥32-seed
// matrix runs in tier-1 (plain `go test`).
func TestSeedSweepMatrix(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 4
	}

	d := rel.NewDict()
	tri := triangles(d)
	open := openTriangles(d)
	g := workload.RandomGraph(8, 18, 5)
	q := Query(notTC)
	g3 := workload.ComponentsGraph(3, 3)
	const p = 3

	// Each case builds a loaded network and states its centralized
	// answer; the sweep only varies scheduler, duplication, and seed.
	cases := []struct {
		name string
		want string
		mk   func(opts ...Option) *Network
	}{
		{
			name: "monotone-broadcast",
			want: tri(g).String(),
			mk: func(opts ...Option) *Network {
				n := New(p, func() Program { return MonotoneBroadcast(tri) }, opts...)
				if err := n.LoadParts(hashParts(g, p)); err != nil {
					t.Fatal(err)
				}
				return n
			},
		},
		{
			name: "coordinated",
			want: open(g).String(),
			mk: func(opts ...Option) *Network {
				n := New(p, func() Program { return &Coordinated{Q: open} }, opts...)
				if err := n.LoadParts(hashParts(g, p)); err != nil {
					t.Fatal(err)
				}
				return n
			},
		},
		{
			name: "open-triangle-aware",
			want: open(g).String(),
			mk: func(opts ...Option) *Network {
				pol := &policy.Hash{Nodes: p}
				n := New(p, func() Program { return OpenTriangle() }, append(opts, WithPolicy(pol))...)
				if err := n.LoadPolicy(g, pol); err != nil {
					t.Fatal(err)
				}
				return n
			},
		},
		{
			name: "disjoint-complete",
			want: q(g3).String(),
			mk: func(opts ...Option) *Network {
				pol := &policy.DomainGuided{Nodes: p, DefaultWidth: 1}
				n := New(p, func() Program { return &DisjointComplete{Q: q} }, append(opts, WithPolicy(pol))...)
				if err := n.LoadPolicy(g3, pol); err != nil {
					t.Fatal(err)
				}
				return n
			},
		},
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for schedName, mkSched := range schedulerFactories(p, 0) {
				for _, dup := range []bool{false, true} {
					for seed := 0; seed < seeds; seed++ {
						opts := []Option{WithScheduler(seedScheduler(schedName, int64(seed), mkSched))}
						if dup {
							opts = append(opts, WithDuplication(2, int64(seed)*101+3))
						}
						n := c.mk(opts...)
						if _, err := n.Run(); err != nil {
							t.Fatalf("%s dup=%v seed=%d: %v", schedName, dup, seed, err)
						}
						if got := n.Output().String(); got != c.want {
							t.Fatalf("%s dup=%v seed=%d: output drifted:\n got %s\nwant %s",
								schedName, dup, seed, got, c.want)
						}
					}
				}
			}
		})
	}
}

// seedScheduler threads the sweep seed into the random scheduler;
// deterministic schedulers ignore it (their sweep dimension is the
// duplication seed instead).
func seedScheduler(name string, seed int64, mk func() Scheduler) Scheduler {
	if name == "random" {
		return NewRandom(seed)
	}
	return mk()
}
