package gym

import (
	"errors"
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

// program is one row of the suite the fault, Byzantine, transport and
// option gates run: a named program as values — rounds and their input,
// or, for the one delta row, a delta program and its batch schedule.
type program struct {
	name    string
	p       int
	rounds  []mpc.Round
	input   *rel.Instance
	delta   *mpc.DeltaProgram
	batches []*rel.Instance
}

// run executes the row on a fresh cluster built under opts; on error
// the partially executed cluster is returned with it.
func (pr program) run(opts ...mpc.Option) (*mpc.Cluster, error) {
	if pr.delta == nil {
		return mpc.Simulate(pr.rounds, pr.p, pr.input, opts...)
	}
	c := mpc.NewCluster(pr.p, opts...)
	err := c.RunDelta(*pr.delta, pr.batches[0])
	for _, b := range pr.batches[1:] {
		if err == nil {
			err = c.ApplyUpdate(b)
		}
	}
	return c, err
}

// mustRun is run on the transport mk selects, fatal on error.
func (pr program) mustRun(t *testing.T, mk optsFor) *mpc.Cluster {
	t.Helper()
	c, err := pr.run(mk(t, pr.p)...)
	if err != nil {
		t.Fatalf("%s: %v", pr.name, err)
	}
	return c
}

// programSuite is the suite at p servers: one-round HyperCube triangle,
// cascade triangle, distributed Yannakakis, GYM, the skew-aware
// two-round triangle, and the incremental ΔTC program fed in three
// chunks. Each gate picks its rows by name; tri and chain size the
// triangle and chain inputs (the fault gates run 40 and 100, the
// transport and option gates 30 and 80).
func programSuite(t *testing.T, p, tri, chain int) []program {
	t.Helper()
	triQ := TriangleCQ()
	chainQ := cq.MustParse(rel.NewDict(), "H(a, dd) :- R0(a, b), R1(b, c), R2(c, dd)")
	triInst := workload.TriangleSkewFree(tri)
	chainInst, _ := workload.AcyclicChain(3, chain, 0.4, 2)
	skewInst := workload.TriangleSkewed(150, 0.3)
	heavy := rel.NewValueSet(workload.HeavyHitters(skewInst, "R", 1, 15)...)
	graph := workload.RandomGraph(20, 32, 9)
	grid, err := hypercube.NewOptimalGrid(triQ, p, 17)
	if err != nil {
		t.Fatal(err)
	}
	yannakakis, err := YannakakisProgram(chainQ, p, 42)
	if err != nil {
		t.Fatal(err)
	}
	gym, err := GYMProgram(triQ, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	deltaTC := DeltaTCProgram(p, 11)
	return []program{
		{name: "hypercube-triangle", p: grid.P(), rounds: []mpc.Round{hypercube.HyperCubeRound(grid)}, input: triInst},
		{name: "cascade-triangle", p: p, rounds: CascadeTriangleProgram(p, 11), input: triInst},
		{name: "yannakakis-chain", p: p, rounds: yannakakis, input: chainInst},
		{name: "gym-triangle", p: p, rounds: gym, input: triInst},
		{name: "skew-two-round", p: p, rounds: SkewTriangleProgram(p, heavy, 17, grid), input: skewInst},
		{name: "delta-tc", p: p, delta: &deltaTC, batches: chunkFacts(graph.Facts(), 3)},
	}
}

// pick returns the named rows of the suite, in the order named.
func pick(suite []program, names ...string) []program {
	var out []program
	for _, name := range names {
		for _, pr := range suite {
			if pr.name == name {
				out = append(out, pr)
			}
		}
	}
	return out
}

// programMatrix is the part of the suite the transport and option
// gates run: everything but the skew-aware triangle.
func programMatrix(t *testing.T, p int) []program {
	return pick(programSuite(t, p, 30, 80), "hypercube-triangle", "cascade-triangle", "yannakakis-chain", "gym-triangle", "delta-tc")
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
		for _, prog := range programMatrix(t, p) {
			prog := prog
			t.Run(fmt.Sprintf("%s/p=%d", prog.name, p), func(t *testing.T) {
				ref := prog.mustRun(t, localOpts)
				got := prog.mustRun(t, tcpOpts)

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
// The Byzantine matrix replays on the same sockets as subtests
// byzantine/<plan>: each plan heals to the same bytes or fails with a
// typed routing-integrity accusation.
func TestChaosOverTCP(t *testing.T) {
	const p = 6
	cascade := pick(programSuite(t, p, 40, 100), "cascade-triangle")[0]

	base := cascade.mustRun(t, localOpts)
	wantOut := base.Output().String()
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
			c, err := cascade.run(opts...)
			if err != nil {
				t.Fatalf("cascade under %s over tcp: %v", np.Name, err)
			}
			if got := c.Output().String(); got != wantOut {
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

	// The Byzantine matrix over the same sockets: audit and quarantine
	// rewrite the per-source shards before the Exchange publishes them,
	// so a healed run must ship the fault-free frames and a persistent
	// compromise must fail, typed, before any frame is published.
	t.Run("byzantine", func(t *testing.T) {
		byz := mpc.ByzantineFaultMatrix(2026, base.Rounds(), p)
		if testing.Short() {
			byz = byz[:2]
		}
		quarantined, accusations := 0, 0
		for _, np := range byz {
			t.Run(np.Name, func(t *testing.T) {
				opts := append(tcpOpts(t, p), mpc.WithFaultPlan(np.Plan))
				c, err := cascade.run(opts...)
				if np.Plan.Persistent() {
					var rie *mpc.RoutingIntegrityError
					if !errors.As(err, &rie) {
						t.Fatalf("persistent plan over tcp: want a *mpc.RoutingIntegrityError, got %v", err)
					}
					if rie.Accused < 0 || rie.Accused >= p {
						t.Errorf("accused out-of-range server %d", rie.Accused)
					}
					accusations++
					return
				}
				if err != nil {
					t.Fatalf("cascade under %s over tcp: %v", np.Name, err)
				}
				if got := c.Output().String(); got != wantOut {
					t.Errorf("output diverged under %s over tcp", np.Name)
				}
				if got := c.LogicalTrace(); got != wantTrace {
					t.Errorf("logical trace diverged under %s over tcp:\n got %q\nwant %q", np.Name, got, wantTrace)
				}
				quarantined += c.RecoveryTotals().Quarantined
			})
		}
		if !testing.Short() && (quarantined == 0 || accusations == 0) {
			t.Errorf("byzantine matrix over tcp fired %d quarantines and %d accusations, want both > 0", quarantined, accusations)
		}
	})
}
