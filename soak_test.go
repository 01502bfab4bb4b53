package mpclogic

// Sustained-update soak: drive a maintained transitive-closure view
// with a mixed stream of update batches for a wall-clock budget, and
// after every epoch verify the maintained cluster byte-identically
// matches a from-scratch run on the accumulated input — output AND
// per-server state. Tier-1 runs a tiny default budget; the nightly
// job sets MPC_SOAK=60s (see `make soak`). Wall time only decides
// when to STOP: the update stream itself is deterministic, and the
// identity being checked must hold after every batch, so stopping at
// an arbitrary point never weakens the check.

import (
	"os"
	"testing"
	"time"

	"mpclogic/internal/gym"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// soakBatch builds one update batch of `size` fresh edges. Sources are
// unique within an epoch; targets cycle over nodes 113..120 of the
// resident 120-path, so each edge's closure consequences stay bounded
// (≤ 8 facts) while batch shapes still vary.
func soakBatch(i, size int) *rel.Instance {
	b := rel.NewInstance()
	for k := 0; k < size; k++ {
		u := rel.Value(1<<22 + i*1000 + k)
		b.Add(rel.NewFact("E", u, rel.Value(113+(i+k)%8)))
	}
	return b
}

func TestSustainedUpdateSoak(t *testing.T) {
	budget := 150 * time.Millisecond
	if s := os.Getenv("MPC_SOAK"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad MPC_SOAK %q: %v", s, err)
		}
		budget = d
	}
	const (
		p, seed  = 5, 11
		epochCap = 50000 // update facts per epoch before the scratch check
	)
	base := workload.PathGraph(120)
	sizes := []int{1, 7, 1, 100, 33, 1, 1000, 5}
	deadline := time.Now().Add(budget)
	epochs, totalBatches, totalFacts := 0, 0, 0
	for {
		c := mpc.NewCluster(p)
		if err := c.RunDelta(gym.DeltaTCProgram(p, seed), base); err != nil {
			t.Fatal(err)
		}
		cum := base.Clone()
		facts, batches := 0, 0
		// Always run at least one full cycle of batch shapes, then keep
		// streaming until the epoch cap or the wall-clock budget.
		for i := 0; facts < epochCap && (i < len(sizes) || time.Now().Before(deadline)); i++ {
			size := sizes[i%len(sizes)]
			upd := soakBatch(i, size)
			if err := c.ApplyUpdate(upd); err != nil {
				t.Fatalf("epoch %d batch %d: %v", epochs, i, err)
			}
			cum.AddAll(upd)
			facts += size
			batches++
		}
		ref := mpc.NewCluster(p)
		if err := ref.RunDelta(gym.DeltaTCProgram(p, seed), cum); err != nil {
			t.Fatal(err)
		}
		if c.Output().String() != ref.Output().String() {
			t.Fatalf("epoch %d: maintained output diverged from from-scratch after %d batches (%d update facts)",
				epochs, batches, facts)
		}
		for s := 0; s < p; s++ {
			if !c.Server(s).Equal(ref.Server(s)) {
				t.Fatalf("epoch %d: server %d state diverged from from-scratch after %d batches", epochs, s, batches)
			}
		}
		if got := c.DeltaCommTotal(); got != c.TotalComm() {
			t.Fatalf("epoch %d: shipped %d facts but only %d as deltas", epochs, c.TotalComm(), got)
		}
		epochs++
		totalBatches += batches
		totalFacts += facts
		if !time.Now().Before(deadline) {
			break
		}
	}
	t.Logf("soak: %d epochs, %d batches, %d update facts in %v budget", epochs, totalBatches, totalFacts, budget)
}
