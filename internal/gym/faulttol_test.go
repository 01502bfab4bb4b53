package gym

import (
	"fmt"
	"math/rand"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// Fault-transparency invariant (the headline property of the
// fault-tolerance layer): for every fault plan in the seeded standard
// matrix, a multi-round algorithm's output AND its logical per-round
// metrics (received vector, max load, total communication, round
// count) are byte-identical to the fault-free run — recovery is
// visible only in the recovery metrics. Checked across the matrix for
// all four multi-round algorithms: cascade triangle, distributed
// Yannakakis, GYM, and the skew-aware two-round triangle.
func TestFaultTransparencyMatrix(t *testing.T) {
	algos := append(pick(programSuite(t, 6, 40, 100), "cascade-triangle", "yannakakis-chain", "gym-triangle"),
		pick(programSuite(t, 8, 40, 100), "skew-two-round")...)

	for _, a := range algos {
		a := a
		t.Run(a.name, func(t *testing.T) {
			base, err := a.run()
			if err != nil {
				t.Fatal(err)
			}
			wantOut := base.Output().String()
			wantTrace := base.LogicalTrace()

			matrix := mpc.StandardFaultMatrix(2026, 12, a.p)
			if testing.Short() {
				matrix = matrix[:3]
			}
			var tot mpc.RecoveryStats
			for _, np := range matrix {
				c, err := a.run(mpc.WithFaultPlan(np.Plan))
				if err != nil {
					t.Fatalf("%s under %s: %v", a.name, np.Name, err)
				}
				if got := c.Output().String(); got != wantOut {
					t.Errorf("%s under %s: output diverged", a.name, np.Name)
				}
				if got := c.LogicalTrace(); got != wantTrace {
					t.Errorf("%s under %s: logical trace diverged:\n got %q\nwant %q", a.name, np.Name, got, wantTrace)
				}
				if c.MaxLoad() != base.MaxLoad() || c.TotalComm() != base.TotalComm() || c.Rounds() != base.Rounds() {
					t.Errorf("%s under %s: domain metrics diverged", a.name, np.Name)
				}
				r := c.RecoveryTotals()
				tot.Retries += r.Retries
				tot.RecoveredServers += r.RecoveredServers
				tot.ReplicaComm += r.ReplicaComm
				tot.SpeculativeWins += r.SpeculativeWins
			}
			// Transparency must not be vacuous: the matrix has to have
			// actually crashed servers and retried transfers.
			if !testing.Short() && (tot.Retries == 0 || tot.RecoveredServers == 0) {
				t.Errorf("%s: matrix injected no recoverable faults (totals %+v)", a.name, tot)
			}
		})
	}
}

// A run that exhausts its retry budget mid-program fails atomically at
// round granularity; re-running the same program on the same cluster
// after removing the fault plan resumes with the failed round instead
// of restarting — the program is data, so RunResumable skips the prefix
// the cluster's history already holds.
func TestRunYannakakisRoundsResumesAfterFailure(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(a, dd) :- R0(a, b), R1(b, c), R2(c, dd)")
	inst, _ := workload.AcyclicChain(3, 100, 0.4, 2)
	want := cq.Output(q, inst)
	prog, err := YannakakisProgram(q, 8, 42)
	if err != nil {
		t.Fatal(err)
	}

	// Kill round 5 (a top-down semijoin) beyond the retry budget.
	plan := mpc.NewFaultPlan().AddCrash(5, 1, mpc.DefaultRetryBudget+1)
	c := mpc.NewCluster(8, mpc.WithFaultPlan(plan))
	c.LoadRoundRobin(inst)
	if err := c.RunResumable(prog...); err == nil {
		t.Fatal("budget-exceeding crash did not fail the run")
	}
	if c.Rounds() != 5 {
		t.Fatalf("failed run completed %d rounds, want 5 (atomic failure)", c.Rounds())
	}

	mpc.WithFaultPlan(nil)(c)
	if err := c.RunResumable(prog...); err != nil {
		t.Fatal(err)
	}
	if c.Rounds() != 8 {
		t.Errorf("resumed run has %d rounds, want 8", c.Rounds())
	}
	if !c.Output().Filter(func(f rel.Fact) bool { return f.Rel == q.Head.Rel }).Equal(want) {
		t.Errorf("resumed output wrong")
	}
}

// Checkpoint/Restore across the GYM phase boundary: a run killed
// mid-Yannakakis is restored from its checkpoint onto a fresh cluster
// and resumed via the rebuilt program, reproducing the fault-free
// output and logical trace.
func TestGYMRestoreFromCheckpoint(t *testing.T) {
	gym := pick(programSuite(t, 6, 40, 100), "gym-triangle")[0]

	free, err := gym.run()
	if err != nil {
		t.Fatal(err)
	}
	want := free.Output()

	// Kill round 4 — inside the Yannakakis phase, past the bag rounds.
	plan := mpc.NewFaultPlan().AddCrash(4, 0, mpc.DefaultRetryBudget+1)
	c, err := gym.run(mpc.WithFaultPlan(plan))
	if err == nil {
		t.Fatal("budget-exceeding crash did not fail the run")
	}
	if c == nil {
		t.Fatal("failed GYM did not return the partial cluster")
	}
	ck := c.Checkpoint()
	if ck == nil || ck.Rounds() != 4 {
		t.Fatalf("checkpoint covers %d rounds, want 4", ck.Rounds())
	}

	prog, err := GYMProgram(TriangleCQ(), 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	restored := mpc.Restore(ck)
	if err := restored.RunResumable(prog...); err != nil {
		t.Fatal(err)
	}
	if got := restored.Output().String(); got != want.String() {
		t.Errorf("restored output diverged from fault-free run")
	}
	if got := restored.LogicalTrace(); got != free.LogicalTrace() {
		t.Errorf("restored logical trace diverged:\n got %q\nwant %q", got, free.LogicalTrace())
	}
}

// randomProgram builds a deterministic multi-round program from the
// seeded source: each round picks a routing discipline (hash shuffle
// on random columns, broadcast, or per-relation dispatch that drops
// unlisted relations), sometimes keeps one relation local, and
// sometimes runs a pure join computation on top. The programs are not
// meaningful queries — they exist to exercise every routing/keep/
// compute combination the checkpoint layer must round-trip.
func randomProgram(r *rand.Rand, d *rel.Dict, p, rounds int) []mpc.Round {
	joinQ := cq.MustParse(d, "H(x, z) :- R(x, y), S(y, z)")
	rels := []string{"R", "S", "T"}
	prog := make([]mpc.Round, rounds)
	for i := range prog {
		round := mpc.Round{Name: fmt.Sprintf("rand-%d", i)}
		switch r.Intn(3) {
		case 0:
			cols := [][]int{{0}, {1}, {0, 1}}[r.Intn(3)]
			round.Route = mpc.HashOn(p, cols, r.Uint64())
		case 1:
			round.Route = mpc.Broadcast(p)
		default:
			routes := map[string]mpc.Router{}
			for _, name := range rels {
				if r.Intn(2) == 0 {
					routes[name] = mpc.HashOn(p, []int{r.Intn(2)}, r.Uint64())
				}
			}
			round.Route = mpc.ByRelation(routes)
		}
		if r.Intn(3) == 0 {
			kept := rels[r.Intn(len(rels))]
			round.Keep = func(f rel.Fact) bool { return f.Rel == kept }
		}
		if r.Intn(2) == 0 {
			round.Compute = func(_ int, local *rel.Instance) *rel.Instance {
				out := local.Clone()
				out.AddAll(cq.Output(joinQ, local))
				return out
			}
		}
		prog[i] = round
	}
	return prog
}

func randomInstance(r *rand.Rand) *rel.Instance {
	inst := rel.NewInstance()
	for _, name := range []string{"R", "S", "T"} {
		for i := 0; i < 12+r.Intn(12); i++ {
			inst.Add(rel.NewFact(name, rel.Value(r.Intn(12)), rel.Value(r.Intn(12))))
		}
	}
	return inst
}

// The property the recovery stack promises, quantified over random
// programs instead of the three hand-built ones: for ANY multi-round
// program, interrupting it after ANY prefix of rounds, checkpointing,
// restoring onto a fresh cluster, and resuming yields the exact
// output and logical trace of the uninterrupted run — even if the
// original cluster is mutated after the checkpoint is taken (the
// StableStore snapshot must isolate the restore from its source).
func TestCheckpointRestoreRoundTripProperty(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(1000 + seed)))
			d := rel.NewDict()
			p := 2 + r.Intn(4)
			rounds := 3 + r.Intn(4)
			prog := randomProgram(r, d, p, rounds)
			inst := randomInstance(r)

			base := mpc.NewCluster(p, mpc.WithCheckpoints())
			base.LoadRoundRobin(inst)
			if err := base.Run(prog...); err != nil {
				t.Fatal(err)
			}
			wantOut := base.Output().String()
			wantTrace := base.LogicalTrace()

			// Interrupt at the empty prefix, the full program, and a
			// random interior round.
			prefixes := []int{0, rounds, 1 + r.Intn(rounds)}
			for _, k := range prefixes {
				c := mpc.NewCluster(p, mpc.WithCheckpoints())
				c.LoadRoundRobin(inst)
				if err := c.Run(prog[:k]...); err != nil {
					t.Fatal(err)
				}
				ck := c.Checkpoint()
				if ck == nil || ck.Rounds() != k {
					t.Fatalf("prefix %d: checkpoint covers %d rounds", k, ck.Rounds())
				}
				// Poison the source cluster after the snapshot: the
				// restore below must not see this.
				c.LoadAt(0, rel.MustInstance(d, "R(999, 999)"))

				restored := mpc.Restore(ck)
				if err := restored.RunResumable(prog...); err != nil {
					t.Fatalf("prefix %d: resume failed: %v", k, err)
				}
				if got := restored.Output().String(); got != wantOut {
					t.Errorf("prefix %d: output diverged from uninterrupted run", k)
				}
				if got := restored.LogicalTrace(); got != wantTrace {
					t.Errorf("prefix %d: logical trace diverged:\n got %q\nwant %q", k, got, wantTrace)
				}
			}
		})
	}
}

// Program builders must be pure data: rebuilding with the same
// arguments yields the same round names in the same order (the
// property RunResumable's prefix check relies on).
func TestProgramsAreReproducible(t *testing.T) {
	d := rel.NewDict()
	tri := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	chain := cq.MustParse(d, "H(a, c) :- R0(a, b), R1(b, c)")

	names := func(prog []mpc.Round) []string {
		out := make([]string, len(prog))
		for i, r := range prog {
			out[i] = r.Name
		}
		return out
	}
	eq := func(a, b []string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	y1, err := YannakakisProgram(chain, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	y2, _ := YannakakisProgram(chain, 8, 42)
	if !eq(names(y1), names(y2)) {
		t.Errorf("YannakakisProgram not reproducible: %v vs %v", names(y1), names(y2))
	}

	g1, err := GYMProgram(tri, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := GYMProgram(tri, 8, 3)
	if !eq(names(g1), names(g2)) {
		t.Errorf("GYMProgram not reproducible: %v vs %v", names(g1), names(g2))
	}

	if !eq(names(CascadeTriangleProgram(8, 11)), names(CascadeTriangleProgram(8, 11))) {
		t.Errorf("CascadeTriangleProgram not reproducible")
	}
}
