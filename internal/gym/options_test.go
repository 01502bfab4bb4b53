package gym

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"mpclogic/internal/mpc"
	"mpclogic/internal/policy"
)

// storeImage is the durable image of a cluster's checkpoint, the bytes
// a serving layer would spill to disk.
func storeImage(t *testing.T, c *mpc.Cluster) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := policy.EncodeStore(&buf, c.Checkpoint().Store()); err != nil {
		t.Fatalf("encoding checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestOptionsDoNotChangeAFaultFreeRound states the law the one round
// body makes true: an Option changes what a round survives and how its
// shards are cut, never which steps it takes, so a run no fault fires
// in records the same RoundStats — every field, the virtual makespan
// included — the same logical trace, the same per-server state and the
// same checkpoint image whether the cluster was built with no Option,
// recoverable, under an empty fault plan, or with every delivery
// verified.
func TestOptionsDoNotChangeAFaultFreeRound(t *testing.T) {
	fixed := func(opts ...mpc.Option) optsFor {
		return func(*testing.T, int) []mpc.Option { return opts }
	}
	optionSets := []struct {
		name string
		mk   optsFor
	}{
		{"checkpoints", fixed(mpc.WithCheckpoints())},
		{"empty-fault-plan", fixed(mpc.WithFaultPlan(mpc.NewFaultPlan()))},
		{"verify-every-delivery", fixed(mpc.WithRoutingVerification(1))},
	}
	for _, p := range []int{3, 4, 8} {
		for _, prog := range programMatrix(t, p) {
			t.Run(fmt.Sprintf("%s/p=%d", prog.name, p), func(t *testing.T) {
				ref := prog.mustRun(t, localOpts)
				refImage := storeImage(t, ref)
				for _, s := range ref.Stats() {
					if s.VirtualMakespan != 2 {
						t.Errorf("round %q on a cluster built with no Option ended at tick %d, want 2", s.Name, s.VirtualMakespan)
					}
				}
				for _, set := range optionSets {
					got := prog.mustRun(t, set.mk)
					if !reflect.DeepEqual(got.Stats(), ref.Stats()) {
						t.Errorf("%s: round stats diverged from the no-Option run:\n got %#v\nwant %#v", set.name, got.Stats(), ref.Stats())
					}
					if g, w := got.LogicalTrace(), ref.LogicalTrace(); g != w {
						t.Errorf("%s: logical trace diverged:\n got %q\nwant %q", set.name, g, w)
					}
					for i := 0; i < ref.P(); i++ {
						if !got.Server(i).Equal(ref.Server(i)) {
							t.Errorf("%s: server %d state diverged", set.name, i)
						}
					}
					if !bytes.Equal(storeImage(t, got), refImage) {
						t.Errorf("%s: checkpoint image diverged from the no-Option run's", set.name)
					}
				}
			})
		}
	}
}
