// Skew (Examples 3.1(1a)/(1b), Section 3.2): measures how heavy
// hitters destroy the repartition join's load balance, how the
// value-oblivious grouping join and the SharesSkew-style router shrug
// skew off, and how two rounds beat any one-round algorithm on the
// skewed triangle.
package main

import (
	"fmt"
	"log"
	"math"

	"mpclogic/internal/cq"
	"mpclogic/internal/gym"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// maxLoad runs the rounds on the one executor and reads the load.
func maxLoad(p int, inst *rel.Instance, rounds ...mpc.Round) int {
	c, err := mpc.Simulate(rounds, p, inst)
	if err != nil {
		log.Fatal(err)
	}
	return c.MaxLoad()
}

func main() {
	d := rel.NewDict()
	join := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z)")
	const m, p = 40000, 64

	fmt.Printf("binary join, m=%d per relation, p=%d\n", m, p)
	fmt.Printf("%-12s %-12s %-12s\n", "algorithm", "skew-free", "50% skew")
	rep, err := hypercube.RepartitionJoin(join, p, 7)
	if err != nil {
		log.Fatal(err)
	}
	grp, err := hypercube.GroupingJoin(join, p, 7)
	if err != nil {
		log.Fatal(err)
	}
	free := workload.JoinSkewFree(m)
	skewed := workload.JoinSkewed(m, 0.5)
	heavy := rel.NewValueSet(workload.HeavyHitters(skewed, "R", 1, m/p)...)
	ska, err := hypercube.SkewAwareJoin(join, p, heavy, 7)
	if err != nil {
		log.Fatal(err)
	}
	// A one-round load depends on routing only: skip the quadratic joins.
	rep.Compute, grp.Compute, ska.Compute = nil, nil, nil
	fmt.Printf("%-12s %-12d %-12d\n", "repartition", maxLoad(p, free, rep), maxLoad(p, skewed, rep))
	fmt.Printf("%-12s %-12d %-12d\n", "grouping", maxLoad(p, free, grp), maxLoad(p, skewed, grp))
	fmt.Printf("%-12s %-12d %-12d\n", "skew-aware", maxLoad(p, free, ska), maxLoad(p, skewed, ska))
	fmt.Printf("references: 2m/p=%d  2m/√p=%d\n\n", 2*m/p, 2*m/int(math.Sqrt(p)))

	// Skewed triangle: one round vs two.
	tri := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	triSkew := workload.TriangleSkewed(m, 0.5)
	triHeavy := rel.NewValueSet(workload.HeavyHitters(triSkew, "R", 1, m/16)...)
	grid, err := hypercube.NewOptimalGrid(tri, p, 5)
	if err != nil {
		log.Fatal(err)
	}
	hc := hypercube.HyperCubeRound(grid)
	hc.Compute = nil
	one := maxLoad(grid.P(), triSkew, hc)
	two := maxLoad(p, triSkew, gym.SkewTriangleProgram(p, triHeavy, 5, grid)...)
	fmt.Printf("skewed triangle (m=%d, p=%d):\n", m, p)
	fmt.Printf("  one-round hypercube load: %d (lower bound under skew: m/√p = %.0f)\n",
		one, float64(m)/math.Sqrt(p))
	fmt.Printf("  two-round skew-aware:     %d (skew-free shape: 3m/p^(2/3) = %.0f)\n",
		two, 3*float64(m)/math.Pow(p, 2.0/3.0))
}
