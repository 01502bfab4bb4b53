package gym

import (
	"errors"
	"testing"

	"mpclogic/internal/mpc"
)

// TestByzantineMatrixAcrossPrograms machine-checks the routing-
// integrity invariant on real algorithms: for every plan in the
// seeded ByzantineFaultMatrix, a run either produces byte-identical
// output and logical trace to the fault-free reference (transient
// corruption: audited, quarantined, recovered) or fails with a typed
// *mpc.RoutingIntegrityError naming an accused server (persistent
// corruption: detected, never silently absorbed). No third outcome —
// in particular no divergent-but-successful run — is allowed, across
// the one-round HyperCube triangle, the cascade triangle, GYM, and
// the incremental ΔTC program.
func TestByzantineMatrixAcrossPrograms(t *testing.T) {
	programs := pick(programSuite(t, 6, 40, 100), "hypercube-triangle", "cascade-triangle", "gym-triangle", "delta-tc")

	for _, prog := range programs {
		prog := prog
		t.Run(prog.name, func(t *testing.T) {
			base, err := prog.run()
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			wantOut := base.Output().String()
			wantTrace := base.LogicalTrace()

			matrix := mpc.ByzantineFaultMatrix(2026, base.Rounds(), prog.p)
			if testing.Short() {
				matrix = matrix[:2]
			}
			quarantined, accusations := 0, 0
			for _, np := range matrix {
				c, err := prog.run(mpc.WithFaultPlan(np.Plan))
				if err != nil {
					var rie *mpc.RoutingIntegrityError
					if !errors.As(err, &rie) {
						t.Errorf("%s failed with an untyped error: %v", np.Name, err)
						continue
					}
					if !np.Plan.Persistent() {
						t.Errorf("recoverable plan %s escalated to an accusation: %v", np.Name, err)
					}
					if rie.Accused < 0 || rie.Accused >= prog.p {
						t.Errorf("%s accused out-of-range server %d", np.Name, rie.Accused)
					}
					accusations++
					continue
				}
				if got := c.Output().String(); got != wantOut {
					t.Errorf("%s: run succeeded with divergent output", np.Name)
				}
				if got := c.LogicalTrace(); got != wantTrace {
					t.Errorf("%s: run succeeded with divergent logical trace:\n got %q\nwant %q", np.Name, got, wantTrace)
				}
				quarantined += c.RecoveryTotals().Quarantined
			}
			// The invariant must not hold vacuously: across the full
			// matrix, at least one transient plan must have actually been
			// quarantined and at least one persistent plan accused.
			if !testing.Short() {
				if quarantined == 0 {
					t.Errorf("matrix fired no quarantines")
				}
				if accusations == 0 {
					t.Errorf("matrix produced no routing-integrity accusation")
				}
			}
		})
	}
}
