package experiments

import "mpclogic/internal/mpc"

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
		matrix := mpc.ByzantineFaultMatrix(2026, a.base.Rounds(), a.p)
		m, err := a.runMatrix(matrix)
		if err != nil {
			return nil, err
		}
		res.rowf("%-18s p=%-3d rounds=%d plans=%d invariant=%v  Σ(quarantined=%d accusations=%d)",
			a.name, a.p, a.base.Rounds(), len(matrix), m.identical, m.rec.Quarantined, m.accusations)
		// The invariant must hold AND must not be vacuous: the matrix has
		// to have actually quarantined a liar and proved a compromise.
		res.Pass = res.Pass && m.identical && m.rec.Quarantined > 0 && m.accusations > 0
		return res, nil
	}
}
