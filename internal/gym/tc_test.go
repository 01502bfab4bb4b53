package gym

import (
	"testing"

	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// TestTCProgramMatchesItsTwin: the unrolled naive program and the
// semi-naive delta program are the same recursion, so on every graph
// they reach the same closure — the reference's — and the unrolled one
// in exactly as many rounds as the graph is deep: one round fewer stops
// short of it (mpcnet's TestTCStepsUnrollsToFixpoint holds the count to
// the naive iteration on every graph shape).
func TestTCProgramMatchesItsTwin(t *testing.T) {
	const p, seed = 4, 11
	empty := rel.NewInstance()
	empty.EnsureRelation("E", 2)
	for name, g := range map[string]*rel.Instance{
		"empty-E": empty,
		"path-9":  workload.PathGraph(9),
		"cycle-7": workload.CycleGraph(7),
		"random":  workload.RandomGraph(20, 32, 9),
	} {
		want := refClosure(g)
		prog := TCProgram(p, seed, g)
		got := simulate(t, prog, nil, p, g).Output().Filter(func(f rel.Fact) bool { return f.Rel == "TC" })
		if !got.Equal(want) {
			t.Errorf("%s: unrolled tc has %d facts, the closure %d", name, got.Len(), want.Len())
		}
		twin := mpc.NewCluster(p)
		if err := twin.RunDelta(DeltaTCProgram(p, seed), g); err != nil {
			t.Fatal(err)
		}
		if tc := twin.Output().Filter(func(f rel.Fact) bool { return f.Rel == "TC" }); !tc.Equal(got) {
			t.Errorf("%s: ΔTC has %d facts, its unrolled twin %d", name, tc.Len(), got.Len())
		}
		if len(prog) > 2 {
			short := simulate(t, prog[:len(prog)-2], nil, p, g).Output().Filter(func(f rel.Fact) bool { return f.Rel == "TC" })
			if short.Equal(want) {
				t.Errorf("%s: %d of %d rounds already reach the closure", name, len(prog)-2, len(prog))
			}
		}
	}
}
