package experiments

import (
	"mpclogic/internal/cq"
	"mpclogic/internal/gym"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mpc"
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
	d := rel.NewDict()
	tri := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
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
	g, err := hypercube.NewOptimalGrid(tri, p, 9)
	if err != nil {
		return nil, err
	}
	hc := mpc.NewCluster(g.P())
	hc.LoadRoundRobin(fan)
	round := hypercube.HyperCubeRound(g)
	// Pair the shuffle with the worst-case-optimal local engine.
	round.Compute = hypercube.GenericJoinCompute(tri)
	if err := hc.Run(round); err != nil {
		return nil, err
	}
	if !hc.Output().Equal(want) {
		res.Pass = false
		res.rowf("hypercube+generic-join WRONG on fan triangle")
	}

	cas, casOut, err := gym.CascadeTriangle(p, fan, 9)
	if err != nil {
		return nil, err
	}
	if !casOut.Filter(func(f rel.Fact) bool { return f.Rel == "H" }).Equal(want) {
		res.Pass = false
		res.rowf("cascade WRONG on fan triangle")
	}
	res.rowf("fan triangle (|R⋈S| = %d, output = %d):", n*n, want.Len())
	res.rowf("  hypercube+WCOJ: rounds=%d totalComm=%d", hc.Rounds(), hc.TotalComm())
	res.rowf("  cascade:        rounds=%d totalComm=%d (ships the fan product)", cas.Rounds(), cas.TotalComm())
	if hc.TotalComm() >= cas.TotalComm() {
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

	g2, err := hypercube.NewOptimalGrid(chain, p, 9)
	if err != nil {
		return nil, err
	}
	hc2 := mpc.NewCluster(g2.P())
	hc2.LoadRoundRobin(inst)
	round2 := hypercube.HyperCubeRound(g2)
	if err := hc2.Run(round2); err != nil {
		return nil, err
	}
	if !hc2.Output().Equal(wantChain) {
		res.Pass = false
		res.rowf("hypercube WRONG on chain")
	}
	yc, yOut, err := gym.DistributedYannakakis(chain, p, inst, 9)
	if err != nil {
		return nil, err
	}
	if !yOut.Equal(wantChain) {
		res.Pass = false
		res.rowf("distributed yannakakis WRONG on chain")
	}
	res.rowf("dangling chain (input = %d, output = %d):", inst.Len(), wantChain.Len())
	res.rowf("  hypercube:  rounds=%d totalComm=%d (replicates everything)", hc2.Rounds(), hc2.TotalComm())
	res.rowf("  yannakakis: rounds=%d totalComm=%d (semijoins first)", yc.Rounds(), yc.TotalComm())
	if yc.TotalComm() >= hc2.TotalComm() {
		res.Pass = false
	}
	return res, nil
}
