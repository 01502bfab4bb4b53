package gym

import (
	"fmt"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// optsFor builds the cluster options selecting a transport for a
// p-server deployment. The local variant is the pinned in-process
// reference; the tcp variant opens real loopback sockets and closes
// them when the test ends.
type optsFor func(t *testing.T, p int) []mpc.Option

func localOpts(t *testing.T, p int) []mpc.Option { return nil }

func tcpOpts(t *testing.T, p int) []mpc.Option {
	t.Helper()
	tr, err := mpc.NewTCPTransport(p)
	if err != nil {
		t.Fatalf("tcp transport(%d): %v", p, err)
	}
	t.Cleanup(func() {
		if err := tr.Close(); err != nil {
			t.Errorf("closing tcp transport: %v", err)
		}
	})
	return []mpc.Option{mpc.WithTransport(tr)}
}

// program is one row of the matrix the equivalence gates run: a named
// algorithm that builds its own cluster with the options mk selects and
// runs to completion.
type program struct {
	name string
	run  func(t *testing.T, mk optsFor) *mpc.Cluster
}

// programMatrix is the matrix at p servers: one-round HyperCube
// triangle, cascade triangle, distributed Yannakakis, GYM, and the
// incremental ΔTC program.
func programMatrix(p int) []program {
	d := rel.NewDict()
	triQ := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	chainQ := cq.MustParse(d, "H(a, dd) :- R0(a, b), R1(b, c), R2(c, dd)")
	triInst := workload.TriangleSkewFree(30)
	chainInst, _ := workload.AcyclicChain(3, 80, 0.4, 2)
	graph := workload.RandomGraph(20, 32, 9)
	return []program{
		{"hypercube-triangle", func(t *testing.T, mk optsFor) *mpc.Cluster {
			g, err := hypercube.NewOptimalGrid(triQ, p, 17)
			if err != nil {
				t.Fatal(err)
			}
			c := mpc.NewCluster(g.P(), mk(t, g.P())...)
			c.LoadRoundRobin(triInst)
			if err := c.Run(hypercube.HyperCubeRound(g)); err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"cascade-triangle", func(t *testing.T, mk optsFor) *mpc.Cluster {
			c, _, err := CascadeTriangle(p, triInst, 11, mk(t, p)...)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"yannakakis-chain", func(t *testing.T, mk optsFor) *mpc.Cluster {
			c, _, err := DistributedYannakakis(chainQ, p, chainInst, 42, mk(t, p)...)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"gym-triangle", func(t *testing.T, mk optsFor) *mpc.Cluster {
			c, _, _, err := GYM(triQ, p, triInst, 3, mk(t, p)...)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"delta-tc", func(t *testing.T, mk optsFor) *mpc.Cluster {
			return runSchedule(t, DeltaTCProgram(p, 11), p,
				schedule{"three-chunks", chunkFacts(graph.Facts(), 3)}, mk(t, p)...)
		}},
	}
}

// TestTransportEquivalence is the tentpole acceptance gate: every
// program in the matrix — one-round HyperCube triangle, cascade
// triangle, distributed Yannakakis, GYM, and the incremental ΔTC
// program — executed over real TCP sockets must be indistinguishable
// from the in-process simulator: byte-identical output, per-server
// state, and logical trace, with MaxLoad/TotalComm/DeltaComm
// unchanged. The transport is allowed to change HOW bytes move, never
// WHAT the model computes or charges.
func TestTransportEquivalence(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		p := p
		for _, prog := range programMatrix(p) {
			prog := prog
			t.Run(fmt.Sprintf("%s/p=%d", prog.name, p), func(t *testing.T) {
				ref := prog.run(t, localOpts)
				got := prog.run(t, tcpOpts)

				if ref.P() != got.P() {
					t.Fatalf("cluster sizes diverged: local %d, tcp %d", ref.P(), got.P())
				}
				if g, w := got.Output().String(), ref.Output().String(); g != w {
					t.Errorf("tcp output diverged from local:\n got %s\nwant %s", g, w)
				}
				for i := 0; i < ref.P(); i++ {
					if !got.Server(i).Equal(ref.Server(i)) {
						t.Errorf("server %d state diverged between transports", i)
					}
				}
				if g, w := got.LogicalTrace(), ref.LogicalTrace(); g != w {
					t.Errorf("tcp logical trace diverged from local:\n got %q\nwant %q", g, w)
				}
				if got.MaxLoad() != ref.MaxLoad() || got.TotalComm() != ref.TotalComm() ||
					got.DeltaCommTotal() != ref.DeltaCommTotal() || got.Rounds() != ref.Rounds() {
					t.Errorf("tcp cost metrics diverged: maxload %d/%d, total %d/%d, delta %d/%d, rounds %d/%d",
						got.MaxLoad(), ref.MaxLoad(), got.TotalComm(), ref.TotalComm(),
						got.DeltaCommTotal(), ref.DeltaCommTotal(), got.Rounds(), ref.Rounds())
				}
			})
		}
	}
}

// TestChaosOverTCP runs the full standard fault matrix with the TCP
// transport installed: the fault-tolerance layer arms the transport's
// frame-layer havoc, so every planned drop really becomes an aborted
// connection on a socket (a truncated frame or a mid-payload RST,
// followed by a retransmission), every planned duplication an extra
// identical frame the receiver must dedup, and every planned
// corruption a bit-flipped frame the receiver's checksum rejects. The
// fault-transparency invariant must survive the wire: output and
// logical trace byte-identical to the fault-free local reference for
// all thirteen plans, the rack-scoped and corrupt-only ones included.
func TestChaosOverTCP(t *testing.T) {
	triInst := workload.TriangleSkewFree(40)
	const p = 6

	base, baseOut, err := CascadeTriangle(p, triInst, 11)
	if err != nil {
		t.Fatal(err)
	}
	wantOut := baseOut.String()
	wantTrace := base.LogicalTrace()

	matrix := mpc.StandardFaultMatrix(2026, 12, p)
	if testing.Short() {
		matrix = matrix[:3]
	}
	var tot mpc.RecoveryStats
	for _, np := range matrix {
		np := np
		t.Run(np.Name, func(t *testing.T) {
			opts := append(tcpOpts(t, p), mpc.WithFaultPlan(np.Plan))
			c, out, err := CascadeTriangle(p, triInst, 11, opts...)
			if err != nil {
				t.Fatalf("cascade under %s over tcp: %v", np.Name, err)
			}
			if got := out.String(); got != wantOut {
				t.Errorf("output diverged under %s over tcp", np.Name)
			}
			if got := c.LogicalTrace(); got != wantTrace {
				t.Errorf("logical trace diverged under %s over tcp:\n got %q\nwant %q", np.Name, got, wantTrace)
			}
			if c.MaxLoad() != base.MaxLoad() || c.TotalComm() != base.TotalComm() || c.Rounds() != base.Rounds() {
				t.Errorf("domain metrics diverged under %s over tcp", np.Name)
			}
			r := c.RecoveryTotals()
			tot.Retries += r.Retries
			tot.RecoveredServers += r.RecoveredServers
			tot.ReplicaComm += r.ReplicaComm
			tot.SpeculativeWins += r.SpeculativeWins
		})
	}
	// The chaos must not be vacuous: the matrix has to have dropped,
	// duplicated, and corrupted real transfers for the frame-layer
	// injection to matter.
	if !testing.Short() && (tot.Retries == 0 || tot.ReplicaComm == 0) {
		t.Errorf("matrix injected no wire faults (totals %+v)", tot)
	}
}
