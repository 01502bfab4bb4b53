package experiments

import (
	"errors"
	"fmt"

	"mpclogic/internal/mpc"
)

// BYZ extends the failure model beyond crash-stop (PR 9): servers that
// mis-route, forge, or selectively drop facts while staying alive. The
// claim is the routing-integrity invariant — every plan in the seeded
// Byzantine matrix either recovers to a byte-identical output and
// logical trace (transient corruption: audited and quarantined) or
// fails with a typed RoutingIntegrityError naming the accused server
// and a Fact.Less-minimal witness (persistent compromise). A run that
// succeeds with different bytes would be a silent integrity breach and
// fails the cell.

func init() {
	register(Def{
		ID:    "BYZ-matrix",
		Name:  "BYZ",
		Title: "Byzantine routing faults (misroute, forge, selective omission) under receiver-side verification",
		Claim: "every plan in the seeded Byzantine matrix either yields byte-identical output and logical trace after audit-and-quarantine, or fails with a typed RoutingIntegrityError naming a minimal witness and the accused server — never a silently divergent success",
		Cells: []Cell{
			{Params: "hypercube-triangle", Run: cellByzMatrix("hypercube-triangle")},
			{Params: "gym-triangle", Run: cellByzMatrix("gym-triangle")},
			{Params: "skew-two-round", Run: cellByzMatrix("skew-two-round")},
		},
	})
}

// cellByzMatrix runs one algorithm under every plan of the seeded
// Byzantine matrix and checks the two-outcome invariant against its
// fault-free run.
func cellByzMatrix(name string) func() (*Result, error) {
	return func() (*Result, error) {
		res := newResult()
		a, err := newFaultAlgo(name)
		if err != nil {
			return nil, err
		}
		base, baseOut := a.base, a.base.Output().String()
		matrix := mpc.ByzantineFaultMatrix(2026, base.Rounds(), a.p)
		quarantined, accusations := 0, 0
		holds := true
		for _, np := range matrix {
			c, err := a.run(mpc.WithByzantinePlan(np.Plan))
			if err != nil {
				var rie *mpc.RoutingIntegrityError
				// An untyped failure, or an escalation on a plan the audit
				// must heal, breaks the invariant.
				if !errors.As(err, &rie) || np.Recoverable {
					return nil, fmt.Errorf("%s under %s: %w", a.name, np.Name, err)
				}
				accusations++
				continue
			}
			if c.Output().String() != baseOut || c.LogicalTrace() != base.LogicalTrace() {
				holds = false
			}
			quarantined += c.RecoveryTotals().Quarantined
		}
		res.rowf("%-18s p=%-3d rounds=%d plans=%d invariant=%v  Σ(quarantined=%d accusations=%d)",
			a.name, a.p, base.Rounds(), len(matrix), holds, quarantined, accusations)
		// The invariant must hold AND must not be vacuous: the matrix has
		// to have actually quarantined a liar and proved a compromise.
		res.Pass = res.Pass && holds && quarantined > 0 && accusations > 0
		return res, nil
	}
}
