package core_test

import (
	"fmt"

	"mpclogic/internal/core"
	"mpclogic/internal/mono"
	"mpclogic/internal/workload"
)

// The façade in one breath: analyze a query's structure, let the
// planner pick an algorithm, execute on the MPC simulator.
func ExampleChoosePlan() {
	a := core.NewAnalyzer()
	q, _ := a.ParseQuery("H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	s, _ := a.Structure(q)
	plan, _ := core.ChoosePlan(q, 64, true, false)
	res, _ := core.Execute(plan, workload.TriangleSkewFree(1000))
	fmt.Printf("τ*=%.1f algo=%s rounds=%d triangles=%d\n",
		s.Tau, plan.Algorithm, res.Rounds, res.Output.Len())
	// Output: τ*=1.5 algo=hypercube rounds=1 triangles=1000
}

// Classify a query in the CALM hierarchy and get the prescribed
// coordination-free strategy.
func ExampleStrategyFor() {
	fmt.Println(core.StrategyFor(mono.M))
	// Output: naive broadcast: output Q(state) as data arrives (Theorem 5.3; F0 = M)
}
