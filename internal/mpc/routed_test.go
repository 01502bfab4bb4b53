package mpc

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mpclogic/internal/policy"
)

// clusterImage renders everything a round may change: every server's
// facts, the stats history in full (logical and recovery metrics), and,
// on a fault-tolerant cluster, the bytes of the checkpoint image.
func clusterImage(t *testing.T, c *Cluster) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < c.P(); i++ {
		fmt.Fprintf(&b, "server %d: %v\n", i, c.Server(i))
	}
	fmt.Fprintf(&b, "stats: %+v\n", c.Stats())
	if ck := c.Checkpoint(); ck != nil {
		var img bytes.Buffer
		if err := policy.EncodeStore(&img, ck.Store()); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "checkpoint after %d rounds: %x\n", ck.Rounds(), img.Bytes())
	}
	return b.String()
}

// optionSet is one way of building a cluster: the laws below hold
// under every one of them.
type optionSet struct {
	name string
	opts []Option
}

// optionSets is the matrix at p servers: no Option, verification,
// checkpoints, both, a fault plan whose Byzantine events fire, and
// every plan of a two-round standard fault matrix under replication.
func optionSets(p int) []optionSet {
	byz := NewFaultPlan().
		AddByzantine(ByzantineEvent{Round: 0, Src: 1, Kind: Misroute, Count: 2, Seed: 3}).
		AddByzantine(ByzantineEvent{Round: 1, Src: 3, Kind: Omit, Count: 1, Seed: 4})
	sets := []optionSet{
		{"fault-free", nil},
		{"fault-free verified", []Option{WithRoutingVerification(2)}},
		{"checkpoints", []Option{WithCheckpoints()}},
		{"ft verified", []Option{WithCheckpoints(), WithRoutingVerification(1)}},
		{"byzantine", []Option{WithFaultPlan(byz)}},
	}
	for _, np := range StandardFaultMatrix(7, 2, p) {
		sets = append(sets, optionSet{"plan " + np.Name, []Option{WithFaultPlan(np.Plan), WithReplication(1)}})
	}
	return sets
}

// TestSimulateIsLoadThenRun is the law of the one executor: under every
// option set, Simulate leaves exactly the cluster that NewCluster,
// LoadRoundRobin and Run leave — servers, full stats, logical trace and
// checkpoint image byte for byte, and the same error — so none of the
// call sites it replaced needs a test of its own.
func TestSimulateIsLoadThenRun(t *testing.T) {
	const p = 5
	load, rounds := byzProgram(p)
	for _, set := range optionSets(p) {
		want := NewCluster(p, set.opts...)
		want.LoadRoundRobin(load)
		werr := want.Run(rounds...)
		got, gerr := Simulate(rounds, p, load, set.opts...)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("%s: Run error %v, Simulate error %v", set.name, werr, gerr)
		}
		if got.LogicalTrace() != want.LogicalTrace() {
			t.Errorf("%s: logical traces differ", set.name)
		}
		if a, b := clusterImage(t, want), clusterImage(t, got); a != b {
			t.Errorf("%s: cluster images differ:\n%s\nvs\n%s", set.name, a, b)
		}
	}
}

// TestRunRoundIsRouteThenDeliver: under every option set a program
// run round by round through RunRound and the same program run through
// RouteRound + Deliver agree on each round's full RoundStats, the
// logical trace, the servers' state and the checkpoint image, and the
// routed loads equal the recorded ones.
func TestRunRoundIsRouteThenDeliver(t *testing.T) {
	const p = 5
	configs := optionSets(p)
	recovered := 0
	for _, cfg := range configs {
		name, opts := cfg.name, cfg.opts
		load, rounds := byzProgram(p)
		whole := NewCluster(p, opts...)
		whole.LoadRoundRobin(load)
		split := NewCluster(p, opts...)
		split.LoadRoundRobin(load)
		for _, r := range rounds {
			want, werr := whole.RunRound(r)
			rr, err := split.RouteRound(r)
			if err != nil {
				t.Fatalf("%s: RouteRound(%s): %v", name, r.Name, err)
			}
			got, gerr := split.Deliver(rr)
			if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
				t.Fatalf("%s: round %s: RunRound error %v, Deliver error %v", name, r.Name, werr, gerr)
			}
			if werr != nil {
				break
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: round %s stats differ:\n run  %+v\n split %+v", name, r.Name, want, got)
			}
			if !reflect.DeepEqual(rr.Received, got.Received) || rr.MaxLoad != got.MaxLoad || rr.TotalComm != got.TotalComm {
				t.Errorf("%s: round %s routed loads %v/%d/%d, recorded %v/%d/%d", name, r.Name,
					rr.Received, rr.MaxLoad, rr.TotalComm, got.Received, got.MaxLoad, got.TotalComm)
			}
		}
		if whole.LogicalTrace() != split.LogicalTrace() {
			t.Errorf("%s: logical traces differ", name)
		}
		if a, b := clusterImage(t, whole), clusterImage(t, split); a != b {
			t.Errorf("%s: cluster images differ:\n%s\nvs\n%s", name, a, b)
		}
		tot := whole.RecoveryTotals()
		recovered += tot.Retries + tot.Quarantined
	}
	if recovered == 0 {
		t.Error("no configuration exercised recovery; the fault-tolerant comparison is vacuous")
	}
}

// TestRoutedThenDroppedLeavesNoTrace: a round that is routed and never
// delivered leaves the servers, the stats and the checkpoint image byte
// for byte as they were, and the cluster goes on to run that round
// exactly as a cluster that never routed it.
func TestRoutedThenDroppedLeavesNoTrace(t *testing.T) {
	const p = 4
	load, rounds := byzProgram(p)
	c := NewCluster(p, WithCheckpoints())
	c.LoadRoundRobin(load)
	control := NewCluster(p, WithCheckpoints())
	control.LoadRoundRobin(load)
	for _, cl := range []*Cluster{c, control} {
		if _, err := cl.RunRound(rounds[0]); err != nil {
			t.Fatal(err)
		}
	}
	before := clusterImage(t, c)
	rr, err := c.RouteRound(rounds[1])
	if err != nil {
		t.Fatal(err)
	}
	if rr.TotalComm == 0 {
		t.Fatal("the dropped round routed nothing")
	}
	if after := clusterImage(t, c); after != before {
		t.Fatalf("routing alone changed the cluster:\n%s\nvs\n%s", before, after)
	}
	for _, cl := range []*Cluster{c, control} {
		if _, err := cl.RunRound(rounds[1]); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := clusterImage(t, c), clusterImage(t, control); a != b {
		t.Errorf("a dropped plan changed the next round:\n%s\nvs\n%s", a, b)
	}
}

// TestDeliverRefusesStalePlans: a plan routed on another cluster, a
// plan already delivered, and a plan the cluster has moved past are
// each refused with a typed error and no state change. The last case
// is the one fault plans depend on: they index by absolute round, and
// the crash scheduled for round 1 here must not fire against a plan
// routed for round 0.
func TestDeliverRefusesStalePlans(t *testing.T) {
	const p = 4
	load, rounds := byzProgram(p)
	fresh := func(opts ...Option) *Cluster {
		c := NewCluster(p, opts...)
		c.LoadRoundRobin(load)
		return c
	}
	refused := func(t *testing.T, c *Cluster, rr *RoutedRound, want StaleRouteReason) {
		t.Helper()
		before := clusterImage(t, c)
		_, err := c.Deliver(rr)
		var stale *StaleRouteError
		if !errors.As(err, &stale) || stale.Reason != want {
			t.Fatalf("Deliver returned %v, want a StaleRouteError with reason %d", err, want)
		}
		if after := clusterImage(t, c); after != before {
			t.Errorf("a refused plan changed the cluster")
		}
	}
	t.Run("another cluster", func(t *testing.T) {
		a, b := fresh(), fresh()
		rr, err := a.RouteRound(rounds[0])
		if err != nil {
			t.Fatal(err)
		}
		refused(t, b, rr, RoutedElsewhere)
		if _, err := a.Deliver(rr); err != nil {
			t.Fatalf("a refusal elsewhere spent the plan: %v", err)
		}
	})
	t.Run("delivered twice", func(t *testing.T) {
		c := fresh(WithCheckpoints())
		rr, err := c.RouteRound(rounds[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Deliver(rr); err != nil {
			t.Fatal(err)
		}
		refused(t, c, rr, RoutedDelivered)
	})
	t.Run("failed delivery spends the plan", func(t *testing.T) {
		c := fresh(WithFaultPlan(NewFaultPlan().AddCrash(0, 1, DefaultRetryBudget+1)))
		before := clusterImage(t, c)
		rr, err := c.RouteRound(rounds[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Deliver(rr); err == nil {
			t.Fatal("a crash beyond the retry budget delivered")
		}
		if after := clusterImage(t, c); after != before {
			t.Errorf("a failed delivery changed the cluster")
		}
		refused(t, c, rr, RoutedDelivered)
	})
	t.Run("cluster committed a round since", func(t *testing.T) {
		c := fresh(WithFaultPlan(NewFaultPlan().AddCrash(1, 1, DefaultRetryBudget+1)))
		rr, err := c.RouteRound(rounds[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunRound(rounds[0]); err != nil {
			t.Fatal(err)
		}
		refused(t, c, rr, RoutedBehind)
	})
	t.Run("cluster turned fault-tolerant since", func(t *testing.T) {
		c := fresh()
		if c.defaultChunk() == 1 {
			t.Skip("one source per shard already: the fault-free plan is a valid fault-tolerant one")
		}
		rr, err := c.RouteRound(rounds[0])
		if err != nil {
			t.Fatal(err)
		}
		WithFaultPlan(NewFaultPlan())(c)
		refused(t, c, rr, RoutedBehind)
	})
}
