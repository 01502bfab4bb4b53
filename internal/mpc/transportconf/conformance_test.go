// Package transportconf is the executable contract of mpc.Transport:
// a conformance suite that every transport — the in-process Local
// path, the TCP frame path, or a future one, which adds its own Test
// beside theirs — must pass unchanged. The suite checks the four clauses of the Transport
// contract (delivery, deterministic merge, error atomicity, logical
// cost accounting) both at the Exchange level with hand-built shards
// and at the cluster level through RunRound, where routing errors and
// panicking user code must leave the cluster untouched regardless of
// how far the wire got.
package transportconf

import (
	"strings"
	"testing"

	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
)

// TestLocalConformance runs the suite against the in-process
// reference transport — the suite must hold on the path the golden
// traces pin, or it is testing the wrong contract.
func TestLocalConformance(t *testing.T) {
	RunConformance(t, func(p int) (mpc.Transport, error) {
		return mpc.NewLocalTransport(), nil
	})
}

// TestTCPConformance runs the identical suite over real loopback
// sockets: same deliveries, same merge determinism, same atomicity —
// the shard granularity and the wire must both be invisible.
func TestTCPConformance(t *testing.T) {
	RunConformance(t, func(p int) (mpc.Transport, error) {
		return mpc.NewTCPTransport(p)
	})
}

// Factory builds a fresh transport for a p-server deployment. The
// suite closes what it opens.
type Factory func(p int) (mpc.Transport, error)

// RunConformance runs the full conformance suite against the
// transport the factory builds. Each subtest gets a fresh transport.
func RunConformance(t *testing.T, factory Factory) {
	t.Helper()
	t.Run("Delivery", func(t *testing.T) { testDelivery(t, factory) })
	t.Run("DeterministicMerge", func(t *testing.T) { testDeterministicMerge(t, factory) })
	t.Run("EmptyExchange", func(t *testing.T) { testEmptyExchange(t, factory) })
	t.Run("LogicalCounts", func(t *testing.T) { testLogicalCounts(t, factory) })
	t.Run("RoutingErrorAtomic", func(t *testing.T) { testRoutingErrorAtomic(t, factory) })
	t.Run("PanicRecoveryAtomic", func(t *testing.T) { testPanicRecoveryAtomic(t, factory) })
	t.Run("ProgramEquivalence", func(t *testing.T) { testProgramEquivalence(t, factory) })
}

func open(t *testing.T, factory Factory, p int) mpc.Transport {
	t.Helper()
	tr, err := factory(p)
	if err != nil {
		t.Fatalf("factory(%d): %v", p, err)
	}
	t.Cleanup(func() {
		if err := tr.Close(); err != nil {
			t.Errorf("closing transport: %v", err)
		}
	})
	return tr
}

// outbox builds a round-private instance from facts.
func outbox(facts ...rel.Fact) *rel.Instance {
	i := rel.NewInstance()
	for _, f := range facts {
		i.Add(f)
	}
	return i
}

// sampleShards builds a 2-shard exchange on 3 servers with the shapes
// that matter: a destination fed by both shards (must union), one fed
// by a single shard, one fed nothing by a shard (nil outbox), and
// overlapping facts across shards (must dedup). Shards are
// round-private, so every call builds fresh instances.
func sampleShards() []mpc.Shard {
	return []mpc.Shard{
		{
			Outs: []*rel.Instance{
				outbox(rel.NewFact("R", 1, 2)),
				outbox(rel.NewFact("R", 3, 4), rel.NewFact("S", 7)),
				nil,
			},
			Sent: []int{1, 2, 0},
		},
		{
			Outs: []*rel.Instance{
				nil,
				outbox(rel.NewFact("R", 3, 4), rel.NewFact("ΔE", -1, 0)),
				outbox(rel.NewFact("S", 9)),
			},
			Sent:      []int{0, 2, 1},
			DeltaSent: 1,
		},
	}
}

// sampleWant is the contractual result of exchanging sampleShards:
// per-destination fact unions and Σ-of-Sent received counts.
func sampleWant() ([]*rel.Instance, []int) {
	want := []*rel.Instance{
		outbox(rel.NewFact("R", 1, 2)),
		outbox(rel.NewFact("R", 3, 4), rel.NewFact("S", 7), rel.NewFact("ΔE", -1, 0)),
		outbox(rel.NewFact("S", 9)),
	}
	return want, []int{1, 4, 1}
}

func testDelivery(t *testing.T, factory Factory) {
	tr := open(t, factory, 3)
	want, wantRecv := sampleWant()
	inboxes, received, err := tr.Exchange("conf-delivery", 3, sampleShards())
	if err != nil {
		t.Fatalf("%s exchange: %v", t.Name(), err)
	}
	if len(inboxes) != 3 || len(received) != 3 {
		t.Fatalf("%s returned %d inboxes / %d counts, want 3/3", t.Name(), len(inboxes), len(received))
	}
	for dst := range want {
		if inboxes[dst] == nil {
			t.Fatalf("%s left inbox %d nil", t.Name(), dst)
		}
		if !inboxes[dst].Equal(want[dst]) {
			t.Errorf("%s inbox %d = %v, want %v", t.Name(), dst, inboxes[dst], want[dst])
		}
		if received[dst] != wantRecv[dst] {
			t.Errorf("%s received[%d] = %d, want %d", t.Name(), dst, received[dst], wantRecv[dst])
		}
	}
}

func testDeterministicMerge(t *testing.T, factory Factory) {
	tr := open(t, factory, 3)
	first, firstRecv, err := tr.Exchange("conf-det", 3, sampleShards())
	if err != nil {
		t.Fatalf("first exchange: %v", err)
	}
	for round := 0; round < 3; round++ {
		again, againRecv, err := tr.Exchange("conf-det", 3, sampleShards())
		if err != nil {
			t.Fatalf("repeat exchange %d: %v", round, err)
		}
		for dst := range first {
			if !again[dst].Equal(first[dst]) {
				t.Fatalf("%s exchange %d inbox %d differs from the first run: %v vs %v",
					t.Name(), round, dst, again[dst], first[dst])
			}
			if againRecv[dst] != firstRecv[dst] {
				t.Fatalf("%s exchange %d received[%d] = %d, first run said %d",
					t.Name(), round, dst, againRecv[dst], firstRecv[dst])
			}
		}
	}
}

func testEmptyExchange(t *testing.T, factory Factory) {
	tr := open(t, factory, 2)
	shards := []mpc.Shard{
		{Outs: make([]*rel.Instance, 2), Sent: make([]int, 2)},
		{Outs: make([]*rel.Instance, 2), Sent: make([]int, 2)},
	}
	inboxes, received, err := tr.Exchange("conf-empty", 2, shards)
	if err != nil {
		t.Fatalf("empty exchange: %v", err)
	}
	for dst := range inboxes {
		if inboxes[dst] == nil || !inboxes[dst].IsEmpty() {
			t.Errorf("%s empty exchange produced inbox %d = %v, want empty", t.Name(), dst, inboxes[dst])
		}
		if received[dst] != 0 {
			t.Errorf("%s empty exchange counted received[%d] = %d", t.Name(), dst, received[dst])
		}
	}
}

// testLogicalCounts pins the cost clause: received counts are the
// logical Sent sums, not payload sizes — a Keep-style delivery ships
// facts the model does not charge, and the transport must not invent
// charges for them.
func testLogicalCounts(t *testing.T, factory Factory) {
	tr := open(t, factory, 2)
	shards := []mpc.Shard{{
		// Two facts travel to server 0, but only one is a counted
		// routed delivery (the other is a Keep fact staying local).
		Outs: []*rel.Instance{outbox(rel.NewFact("R", 1, 2), rel.NewFact("R", 5, 6)), nil},
		Sent: []int{1, 0},
	}}
	inboxes, received, err := tr.Exchange("conf-counts", 2, shards)
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	if got := inboxes[0].Len(); got != 2 {
		t.Errorf("%s delivered %d facts to server 0, want 2", t.Name(), got)
	}
	if received[0] != 1 {
		t.Errorf("%s received[0] = %d, want the logical count 1", t.Name(), received[0])
	}
}

// snapshot captures a cluster's visible state for atomicity checks.
func snapshot(c *mpc.Cluster) []*rel.Instance {
	out := make([]*rel.Instance, c.P())
	for i := 0; i < c.P(); i++ {
		snap := rel.NewInstance()
		snap.AddAll(c.Server(i))
		out[i] = snap
	}
	return out
}

func assertUntouched(t *testing.T, c *mpc.Cluster, before []*rel.Instance) {
	t.Helper()
	if c.Rounds() != 0 {
		t.Errorf("failed round recorded stats: %d rounds", c.Rounds())
	}
	for i := range before {
		if !c.Server(i).Equal(before[i]) {
			t.Errorf("failed round mutated server %d: %v, want %v", i, c.Server(i), before[i])
		}
	}
}

func loadPair(c *mpc.Cluster) {
	in := rel.NewInstance()
	in.Add(rel.NewFact("E", 1, 2))
	in.Add(rel.NewFact("E", 2, 3))
	in.Add(rel.NewFact("E", 3, 4))
	c.LoadRoundRobin(in)
}

func testRoutingErrorAtomic(t *testing.T, factory Factory) {
	tr := open(t, factory, 2)
	c := mpc.NewCluster(2, mpc.WithTransport(tr))
	loadPair(c)
	before := snapshot(c)
	_, err := c.RunRound(mpc.Round{
		Name:  "bad-route",
		Route: mpc.RouterFunc(func(rel.Fact) []int { return []int{5} }),
	})
	if err == nil {
		t.Fatalf("%s: out-of-range route did not error", t.Name())
	}
	if !strings.Contains(err.Error(), "outside") {
		t.Errorf("%s: routing error %q does not name the range violation", t.Name(), err)
	}
	assertUntouched(t, c, before)
}

func testPanicRecoveryAtomic(t *testing.T, factory Factory) {
	tr := open(t, factory, 2)
	c := mpc.NewCluster(2, mpc.WithTransport(tr))
	loadPair(c)
	before := snapshot(c)
	_, err := c.RunRound(mpc.Round{
		Name:  "panicking-router",
		Route: mpc.RouterFunc(func(rel.Fact) []int { panic("router bug") }),
	})
	if err == nil {
		t.Fatalf("%s: panicking router did not error", t.Name())
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("%s: panic error %q does not say so", t.Name(), err)
	}
	assertUntouched(t, c, before)

	_, err = c.RunRound(mpc.Round{
		Name:    "panicking-compute",
		Route:   mpc.HashOn(2, []int{0}, 1),
		Compute: func(int, *rel.Instance) *rel.Instance { panic("compute bug") },
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("%s: panicking compute error = %v, want panic error", t.Name(), err)
	}
	assertUntouched(t, c, before)
}

// testProgramEquivalence runs a small two-round join program through
// RunRound on the transport under test and on the reference Local
// transport: output, per-server state, and the logical trace must be
// byte-identical — the cluster-level restatement of the merge
// determinism clause.
func testProgramEquivalence(t *testing.T, factory Factory) {
	run := func(tr mpc.Transport) *mpc.Cluster {
		c := mpc.NewCluster(3, mpc.WithTransport(tr))
		loadPair(c)
		rounds := []mpc.Round{
			{
				Name:  "shuffle",
				Route: mpc.HashOn(3, []int{1}, 42),
			},
			{
				Name:  "join",
				Route: mpc.HashOn(3, []int{0}, 43),
				Compute: func(_ int, local *rel.Instance) *rel.Instance {
					out := rel.NewInstance()
					if e := local.Relation("E"); e != nil {
						e.Each(func(a rel.Tuple) bool {
							e.Each(func(b rel.Tuple) bool {
								if a[1] == b[0] {
									out.Add(rel.NewFact("P", a[0], b[1]))
								}
								return true
							})
							return true
						})
					}
					out.AddAll(local)
					return out
				},
			},
		}
		if err := c.Run(rounds...); err != nil {
			t.Fatalf("%s program: %v", t.Name(), err)
		}
		return c
	}
	ref := run(mpc.NewLocalTransport())
	got := run(open(t, factory, 3))
	if !got.Output().Equal(ref.Output()) {
		t.Errorf("output differs from the local-transport reference:\n got %v\nwant %v", got.Output(), ref.Output())
	}
	for i := 0; i < 3; i++ {
		if !got.Server(i).Equal(ref.Server(i)) {
			t.Errorf("server %d state differs from the local-transport reference", i)
		}
	}
	if got.LogicalTrace() != ref.LogicalTrace() {
		t.Errorf("logical trace differs from the local-transport reference:\n got %q\nwant %q",
			got.LogicalTrace(), ref.LogicalTrace())
	}
}
