package experiments

import (
	"mpclogic/internal/core"
	"mpclogic/internal/cq"
	"mpclogic/internal/gym"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// Chu, Balazinska and Suciu's empirical findings (Section 3.1 of the
// paper): HyperCube — paired with a worst-case-optimal local join —
// performs well on join queries with large intermediate results, and
// can perform badly on queries with small output, where semijoin-based
// multi-round plans ship far less data. The two regimes are
// independent cells.

func init() {
	register(Def{
		ID:    "CBS-hypercube-vs-multiround",
		Name:  "CBS",
		Title: "HyperCube + worst-case-optimal join vs multi-round plans (Chu-Balazinska-Suciu)",
		Claim: "HyperCube wins on large-intermediate queries; on small-output queries the semijoin plan ships much less data",
		Cells: []Cell{
			{Params: "fan-triangle", Run: cellCBSFanTriangle},
			{Params: "dangling-chain", Run: cellCBSDanglingChain},
		},
	})
}

// Part 1: large intermediate, triangle on a fan instance. The
// cascade ships the quadratic R⋈S; HyperCube ships each relation
// p^{1/3} times. The worst-case-optimal local join keeps per-server
// work near the output.
func cellCBSFanTriangle() (*Result, error) {
	res := newResult()
	tri := gym.TriangleCQ()
	fan := rel.NewInstance()
	hub := rel.Value(1 << 28)
	n := 400
	for i := 0; i < n; i++ {
		fan.Add(rel.NewFact("R", rel.Value(i), hub))
		fan.Add(rel.NewFact("S", hub, rel.Value(100000+i)))
	}
	for i := 0; i < 20; i++ {
		fan.Add(rel.NewFact("T", rel.Value(100000+i), rel.Value(i)))
	}
	want := cq.Output(tri, fan)

	p := 64
	// Pair the shuffle with the worst-case-optimal local engine.
	hc, err := res.execute(&core.Plan{Algorithm: core.AlgoHyperCube, Query: tri, Servers: p, Seed: 9, WCOJ: true}, fan, want)
	if err != nil {
		return nil, err
	}
	cas, err := res.execute(&core.Plan{Algorithm: core.AlgoCascade, Query: tri, Servers: p, Seed: 9}, fan, want)
	if err != nil {
		return nil, err
	}
	res.rowf("fan triangle (|R⋈S| = %d, output = %d):", n*n, want.Len())
	res.rowf("  hypercube+WCOJ: rounds=%d totalComm=%d", hc.Rounds, hc.TotalComm)
	res.rowf("  cascade:        rounds=%d totalComm=%d (ships the fan product)", cas.Rounds, cas.TotalComm)
	if hc.TotalComm >= cas.TotalComm {
		res.Pass = false
	}
	return res, nil
}

// Part 2: small output. A 3-chain with 90% dangling tuples: the
// semijoin-reduced Yannakakis plan ships little; HyperCube must
// still replicate every tuple.
func cellCBSDanglingChain() (*Result, error) {
	res := newResult()
	d := rel.NewDict()
	p := 64
	chain := cq.MustParse(d, "H(a, dd) :- R0(a, b), R1(b, c), R2(c, dd)")
	inst, _ := workload.AcyclicChain(3, 2000, 0.9, 3)
	wantChain := cq.Output(chain, inst)

	hc2, err := res.execute(&core.Plan{Algorithm: core.AlgoHyperCube, Query: chain, Servers: p, Seed: 9}, inst, wantChain)
	if err != nil {
		return nil, err
	}
	yc, err := res.execute(&core.Plan{Algorithm: core.AlgoYannakakis, Query: chain, Servers: p, Seed: 9}, inst, wantChain)
	if err != nil {
		return nil, err
	}
	res.rowf("dangling chain (input = %d, output = %d):", inst.Len(), wantChain.Len())
	res.rowf("  hypercube:  rounds=%d totalComm=%d (replicates everything)", hc2.Rounds, hc2.TotalComm)
	res.rowf("  yannakakis: rounds=%d totalComm=%d (semijoins first)", yc.Rounds, yc.TotalComm)
	if yc.TotalComm >= hc2.TotalComm {
		res.Pass = false
	}
	return res, nil
}
