package mpclogic

// One benchmark per reproduced figure / quantitative claim of the
// paper (see DESIGN.md's experiment index). Domain metrics — maximum
// load, total communication, messages, rounds — are attached with
// b.ReportMetric so `go test -bench=. -benchmem` regenerates the
// numbers behind EXPERIMENTS.md.

import (
	"fmt"
	"math"
	mathrand "math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/datalog"
	"mpclogic/internal/gym"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mapreduce"
	"mpclogic/internal/mono"
	"mpclogic/internal/mpc"
	"mpclogic/internal/pc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
	"mpclogic/internal/scale"
	"mpclogic/internal/stream"
	"mpclogic/internal/transducer"
	"mpclogic/internal/workload"
)

// newDetRand returns a deterministic rand for bench data generation.
func newDetRand(seed int64) *mathrand.Rand { return mathrand.New(mathrand.NewSource(seed)) }

// reportOwnAllocs sets allocs/op to the allocations op makes itself:
// the least runtime.MemStats.Mallocs delta over a few calls run with
// the timer stopped and the collector off. Mallocs counts the whole
// process, and in a binary that links net/netip (this one does, through
// the TCP transport) the runtime's cleanup of the unique package's maps
// allocates a few 24- and 32-byte objects on a goroutine of its own
// after every GC cycle. How many cycles land in the timed loop depends
// on b.N and the heap's history, so an op that allocates megabytes in a
// few dozen objects read 23 or 24 allocs/op at an unchanged tree. With
// the collector off no cycle starts, and a cleanup already pending can
// only add to one call, so the least delta is op's own count.
func reportOwnAllocs(b *testing.B, op func()) {
	b.StopTimer()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := uint64(math.MaxUint64)
	for i := 0; i < 4; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	b.ReportMetric(float64(least), "allocs/op")
}

func triangleQ(d *rel.Dict) *cq.CQ {
	return cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
}

func joinQ(d *rel.Dict) *cq.CQ {
	return cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z)")
}

func runLoadOnly(b *testing.B, p int, inst *rel.Instance, r mpc.Round, opts ...mpc.Option) *mpc.Cluster {
	b.Helper()
	r.Compute = nil
	c, err := mpc.Simulate([]mpc.Round{r}, p, inst, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// verifyStride is the sampling stride the *Verified benchmark variants
// run with: every 16th delivery is re-checked against the round's
// routing contract on the receiver. benchdiff pairs each Verified
// benchmark with its unverified twin (-overhead-suffix) and bounds the
// ns/op ratio, so the cost of always-on verification stays priced.
const verifyStride = 16

// EXP-F1: the Figure 1 transfer matrix (Πᵖ₃-shaped decision ×12).
func BenchmarkFigure1Transfer(b *testing.B) {
	d := rel.NewDict()
	qs := []*cq.CQ{
		cq.MustParse(d, "H() :- S(x), R(x, x), T(x)"),
		cq.MustParse(d, "H() :- R(x, x), T(x)"),
		cq.MustParse(d, "H() :- S(x), R(x, y), T(y)"),
		cq.MustParse(d, "H() :- R(x, y), T(y)"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, qi := range qs {
			for _, qj := range qs {
				if _, _, err := pc.Transfers(qi, qj); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// EXP-F2: bounded classification of a query in the Figure 2 hierarchy.
func BenchmarkFigure2Classify(b *testing.B) {
	d := rel.NewDict()
	open := cq.MustParse(d, "H(x, y, z) :- E(x, y), E(y, z), not E(z, x)")
	q := func(i *rel.Instance) *rel.Instance { return cq.Output(open, i) }
	schema := rel.Schema{"E": 2}
	u := []rel.Value{0, 1, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mono.IsDomainDistinctMonotone(q, schema, u); err != nil {
			b.Fatal(err)
		}
	}
}

// EXP-3.1a: repartition join, skew-free vs skewed load.
func BenchmarkRepartitionJoinSkewFree(b *testing.B) {
	benchJoinLoad(b, workload.JoinSkewFree(20000), func(q *cq.CQ, p int) (mpc.Round, error) {
		return hypercube.RepartitionJoin(q, p, 7)
	})
}

func BenchmarkRepartitionJoinSkewed(b *testing.B) {
	benchJoinLoad(b, workload.JoinSkewed(20000, 0.5), func(q *cq.CQ, p int) (mpc.Round, error) {
		return hypercube.RepartitionJoin(q, p, 7)
	})
}

// EXP-BYZ (overhead half): the skew-free repartition join with sampled
// receiver-side routing verification — the Verified twin of
// BenchmarkRepartitionJoinSkewFree that verify-perf prices.
func BenchmarkRepartitionJoinSkewFreeVerified(b *testing.B) {
	benchJoinLoad(b, workload.JoinSkewFree(20000), func(q *cq.CQ, p int) (mpc.Round, error) {
		return hypercube.RepartitionJoin(q, p, 7)
	}, mpc.WithRoutingVerification(verifyStride))
}

// EXP-3.1b: grouping join under skew.
func BenchmarkGroupingJoinSkewed(b *testing.B) {
	benchJoinLoad(b, workload.JoinSkewed(20000, 0.5), func(q *cq.CQ, p int) (mpc.Round, error) {
		return hypercube.GroupingJoin(q, p, 7)
	})
}

// EXP-SKEW (1-round half): SharesSkew-style router under skew.
func BenchmarkSkewAwareJoin(b *testing.B) {
	inst := workload.JoinSkewed(20000, 0.5)
	heavy := rel.NewValueSet(workload.HeavyHitters(inst, "R", 1, 20000/64)...)
	benchJoinLoad(b, inst, func(q *cq.CQ, p int) (mpc.Round, error) {
		return hypercube.SkewAwareJoin(q, p, heavy, 7)
	})
}

func benchJoinLoad(b *testing.B, inst *rel.Instance, mk func(*cq.CQ, int) (mpc.Round, error), opts ...mpc.Option) {
	b.Helper()
	d := rel.NewDict()
	q := joinQ(d)
	const p = 64
	// Round construction is pure planning (share optimization, router
	// closure setup); build it once so the timed loop measures round
	// execution — routing, delivery, accounting — not planning.
	r, err := mk(q, p)
	if err != nil {
		b.Fatal(err)
	}
	var last *mpc.Cluster
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = runLoadOnly(b, p, inst, r, opts...)
	}
	b.ReportMetric(float64(last.MaxLoad()), "maxload")
	b.ReportMetric(float64(last.TotalComm()), "totalcomm")
}

// EXP-3.1c: two-round cascaded triangle.
func BenchmarkCascadeTriangle(b *testing.B) {
	inst := workload.TriangleSkewFree(5000)
	var last *mpc.Cluster
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := mpc.Simulate(gym.CascadeTriangleProgram(64, 3), 64, inst)
		if err != nil {
			b.Fatal(err)
		}
		last = c
	}
	b.ReportMetric(float64(last.MaxLoad()), "maxload")
	b.ReportMetric(float64(last.Rounds()), "rounds")
}

// What a fault-tolerance Option costs a fault-free run: the same
// two-round cascade on a cluster built with no Option and on one built
// WithCheckpoints. Both run the one round body; the difference is what
// the Option is keyed to — one shard per source instead of one per
// worker, and the rolling post-round snapshot (see mpc.WithCheckpoints)
// — so B/op and allocs/op price exactly that.
func BenchmarkRoundOptions(b *testing.B) {
	inst := workload.TriangleSkewFree(20000)
	for _, bc := range []struct {
		name string
		opts []mpc.Option
	}{
		{"plain", nil},
		{"checkpoints", []mpc.Option{mpc.WithCheckpoints()}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var last *mpc.Cluster
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := mpc.Simulate(gym.CascadeTriangleProgram(8, 3), 8, inst, bc.opts...)
				if err != nil {
					b.Fatal(err)
				}
				last = c
			}
			b.ReportMetric(float64(last.MaxLoad()), "maxload")
			b.ReportMetric(float64(last.TotalComm()), "totalcomm")
			b.ReportMetric(float64(last.Rounds()), "rounds")
		})
	}
}

// EXP-3.2: HyperCube triangle load across p (the paper's headline
// one-round bound m/p^{2/3}).
func BenchmarkHyperCubeTriangle(b *testing.B) {
	d := rel.NewDict()
	q := triangleQ(d)
	m := 20000
	inst := workload.TriangleSkewFree(m)
	for _, p := range []int{8, 64, 512} {
		p := p
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			g, err := hypercube.NewOptimalGrid(q, p, 11)
			if err != nil {
				b.Fatal(err)
			}
			var last *mpc.Cluster
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last = runLoadOnly(b, g.P(), inst, hypercube.HyperCubeRound(g))
			}
			b.ReportMetric(float64(last.MaxLoad()), "maxload")
			b.ReportMetric(3*float64(m)/math.Pow(float64(p), 2.0/3.0), "bound")
		})
	}
}

// EXP-BYZ (overhead half): the HyperCube triangle at the middle server
// count with sampled receiver-side routing verification — paired by
// benchdiff with BenchmarkHyperCubeTriangle/p=64.
func BenchmarkHyperCubeTriangleVerified(b *testing.B) {
	d := rel.NewDict()
	q := triangleQ(d)
	m := 20000
	inst := workload.TriangleSkewFree(m)
	b.Run("p=64", func(b *testing.B) {
		g, err := hypercube.NewOptimalGrid(q, 64, 11)
		if err != nil {
			b.Fatal(err)
		}
		var last *mpc.Cluster
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			last = runLoadOnly(b, g.P(), inst, hypercube.HyperCubeRound(g), mpc.WithRoutingVerification(verifyStride))
		}
		b.ReportMetric(float64(last.MaxLoad()), "maxload")
		b.ReportMetric(3*float64(m)/math.Pow(64, 2.0/3.0), "bound")
	})
}

// EXP-SHARES: share optimization (LP + integer repair).
func BenchmarkShareOptimization(b *testing.B) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z, w) :- R(x, y), S(y, z), T(z, w), U(w, x)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hypercube.OptimalShares(q, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// EXP-SKEW (2-round half): skewed triangle, one round vs two.
func BenchmarkSkewTriangle(b *testing.B) {
	d := rel.NewDict()
	q := triangleQ(d)
	m, p := 20000, 64
	inst := workload.TriangleSkewed(m, 0.5)
	heavy := rel.NewValueSet(workload.HeavyHitters(inst, "R", 1, m/16)...)
	g, err := hypercube.NewOptimalGrid(q, p, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("one-round", func(b *testing.B) {
		var last *mpc.Cluster
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			last = runLoadOnly(b, g.P(), inst, hypercube.HyperCubeRound(g))
		}
		b.ReportMetric(float64(last.MaxLoad()), "maxload")
	})
	b.Run("two-rounds", func(b *testing.B) {
		var last *mpc.Cluster
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := mpc.Simulate(gym.SkewTriangleProgram(p, heavy, 5, g), p, inst)
			if err != nil {
				b.Fatal(err)
			}
			last = c
		}
		b.ReportMetric(float64(last.MaxLoad()), "maxload")
	})
}

// EXP-T48: parallel-correctness decision cost growth (Πᵖ₂ shadow).
func BenchmarkPCDecision(b *testing.B) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, z) :- R(x, y), R(y, z), R(x, x)")
	for _, n := range []int{2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("universe=%d", n), func(b *testing.B) {
			u := make([]rel.Value, n)
			for i := range u {
				u[i] = rel.Value(i)
			}
			pol := &policy.Replicate{Nodes: 2}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := pc.Saturates(q, pol, u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// EXP-CQNEG: bounded CQ¬ parallel-correctness check.
func BenchmarkCQNegPC(b *testing.B) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x) :- R(x), not S(x)")
	pol := &policy.Replicate{Nodes: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.ParallelCorrectNegBounded(q, pol, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// EXP-GYM: Yannakakis vs cascade on dangling-heavy data.
func BenchmarkYannakakis(b *testing.B) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(a, dd) :- R0(a, b), R1(b, c), R2(c, dd)")
	inst := hubInstance(400, 10)
	b.Run("yannakakis", func(b *testing.B) {
		var st *gym.Stats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, s, err := gym.Yannakakis(q, inst)
			if err != nil {
				b.Fatal(err)
			}
			st = s
		}
		b.ReportMetric(float64(st.MaxIntermediate), "max-intermediate")
	})
	b.Run("cascade", func(b *testing.B) {
		var st *gym.Stats
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, s, err := gym.CascadeJoin(q, inst)
			if err != nil {
				b.Fatal(err)
			}
			st = s
		}
		b.ReportMetric(float64(st.MaxIntermediate), "max-intermediate")
	})
}

func hubInstance(fan, keep int) *rel.Instance {
	inst := rel.NewInstance()
	hub := rel.Value(1 << 30)
	for i := 0; i < fan; i++ {
		inst.Add(rel.NewFact("R0", rel.Value(i), hub))
		inst.Add(rel.NewFact("R1", hub, rel.Value(10000+i)))
	}
	for j := 0; j < keep; j++ {
		inst.Add(rel.NewFact("R2", rel.Value(10000+j), rel.Value(20000+j)))
	}
	return inst
}

// EXP-GYM (distributed): GYM on the triangle.
func BenchmarkGYMTriangle(b *testing.B) {
	d := rel.NewDict()
	q := triangleQ(d)
	inst := workload.TriangleSkewFree(2000)
	var last *mpc.Cluster
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := gym.GYMProgram(q, 16, 5)
		if err != nil {
			b.Fatal(err)
		}
		c, err := mpc.Simulate(prog, 16, inst)
		if err != nil {
			b.Fatal(err)
		}
		last = c
	}
	b.ReportMetric(float64(last.Rounds()), "rounds")
	b.ReportMetric(float64(last.TotalComm()), "totalcomm")
}

// EXP-MR: MapReduce transitive closure, linear vs doubling.
func BenchmarkMapReduceTC(b *testing.B) {
	g := workload.PathGraph(64)
	b.Run("linear", func(b *testing.B) {
		var res *mapreduce.TCResult
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := mapreduce.TransitiveClosure(8, g, "E", false)
			if err != nil {
				b.Fatal(err)
			}
			res = r
		}
		b.ReportMetric(float64(res.Rounds), "jobs")
	})
	b.Run("doubling", func(b *testing.B) {
		var res *mapreduce.TCResult
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := mapreduce.TransitiveClosure(8, g, "E", true)
			if err != nil {
				b.Fatal(err)
			}
			res = r
		}
		b.ReportMetric(float64(res.Rounds), "jobs")
	})
}

// EXP-CALM / EXP-BCAST: transducer-network communication, naive vs
// economical broadcast.
func BenchmarkBroadcast(b *testing.B) {
	d := rel.NewDict()
	triQ := cq.MustParse(d, "H(x, y, z) :- E(x, y), E(y, z), E(z, x), x != y, y != z, z != x")
	tri := func(i *rel.Instance) *rel.Instance { return cq.Output(triQ, i) }
	g := workload.RandomGraph(20, 60, 13)
	ballast := workload.Zipf("Noise", 200, 50, 1.2, 1)
	full := g.Union(ballast)
	parts := policy.Distribute(&policy.Hash{Nodes: 4}, full)
	run := func(b *testing.B, mk func() transducer.Program) {
		var st transducer.Stats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := transducer.New(4, mk, transducer.WithSeed(4))
			if err := n.LoadParts(parts); err != nil {
				b.Fatal(err)
			}
			s, err := n.Run()
			if err != nil {
				b.Fatal(err)
			}
			st = s
		}
		b.ReportMetric(float64(st.Sent), "msgs")
	}
	b.Run("naive", func(b *testing.B) {
		run(b, func() transducer.Program { return transducer.MonotoneBroadcast(tri) })
	})
	b.Run("economical", func(b *testing.B) {
		run(b, func() transducer.Program {
			return transducer.EconomicalBroadcast(tri, func(f rel.Fact) bool { return f.Rel == "E" })
		})
	})
}

// EXP-5.12: domain-guided ¬TC network.
func BenchmarkDisjointCompleteNotTC(b *testing.B) {
	g := workload.ComponentsGraph(4, 4)
	pol := &policy.DomainGuided{Nodes: 4, DefaultWidth: 1}
	var st transducer.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := transducer.New(4, func() transducer.Program {
			return &transducer.DisjointComplete{Q: benchNotTC}
		}, transducer.WithSeed(int64(i)), transducer.WithPolicy(pol))
		if err := n.LoadPolicy(g, pol); err != nil {
			b.Fatal(err)
		}
		s, err := n.Run()
		if err != nil {
			b.Fatal(err)
		}
		st = s
	}
	b.ReportMetric(float64(st.Sent), "msgs")
}

func benchNotTC(i *rel.Instance) *rel.Instance {
	reach := map[[2]rel.Value]bool{}
	adom := i.ADom().Sorted()
	if e := i.Relation("E"); e != nil {
		e.Each(func(t rel.Tuple) bool {
			reach[[2]rel.Value{t[0], t[1]}] = true
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for ab := range reach {
			for _, c := range adom {
				if reach[[2]rel.Value{ab[1], c}] && !reach[[2]rel.Value{ab[0], c}] {
					reach[[2]rel.Value{ab[0], c}] = true
					changed = true
				}
			}
		}
	}
	out := rel.NewInstance()
	for _, a := range adom {
		for _, bb := range adom {
			if !reach[[2]rel.Value{a, bb}] {
				out.Add(rel.NewFact("NTC", a, bb))
			}
		}
	}
	return out
}

// Substrate benchmarks: local CQ evaluation and Datalog fixpoints,
// the computation-phase costs under all of the above.
func BenchmarkCQEvaluateTriangle(b *testing.B) {
	d := rel.NewDict()
	q := triangleQ(d)
	inst := workload.TriangleSkewFree(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cq.Evaluate(q, inst).Len() != 20000 {
			b.Fatal("wrong result")
		}
	}
	reportOwnAllocs(b, func() { cq.Evaluate(q, inst) })
}

func BenchmarkDatalogTransitiveClosure(b *testing.B) {
	d := rel.NewDict()
	p := datalog.MustParse(d, "TC(x, y) :- E(x, y)\nTC(x, y) :- TC(x, z), E(z, y)")
	g := workload.CycleGraph(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := datalog.EvalQuery(p, g, "TC")
		if err != nil {
			b.Fatal(err)
		}
		if out.Len() != 10000 {
			b.Fatalf("closure size %d", out.Len())
		}
	}
}

func BenchmarkMinimalValuations(b *testing.B) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, z) :- R(x, y), R(y, z), R(x, x)")
	u := []rel.Value{0, 1, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cq.MinimalValuations(q, u); err != nil {
			b.Fatal(err)
		}
	}
}

// ——— Ablation benchmarks: the design choices DESIGN.md calls out ———

// Ablation: LP-optimal shares vs uniform shares for the binary join
// at p=216. The optimum concentrates the whole budget on the join
// variable y (load 2m/p); uniform shares replicate each relation
// p^{1/3} times and co-locate only p^{1/3} of the budget on y, so the
// load is ~p^{2/3}/2 times worse.
func BenchmarkAblationShareAllocation(b *testing.B) {
	d := rel.NewDict()
	q := joinQ(d)
	m, p := 20000, 216
	inst := workload.JoinSkewFree(m)
	bench := func(b *testing.B, shares map[string]int) {
		g, err := hypercube.NewGrid(q, shares, 11)
		if err != nil {
			b.Fatal(err)
		}
		var last *mpc.Cluster
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			last = runLoadOnly(b, g.P(), inst, hypercube.HyperCubeRound(g))
		}
		b.ReportMetric(float64(last.MaxLoad()), "maxload")
	}
	b.Run("optimal", func(b *testing.B) {
		shares, _, err := hypercube.OptimalShares(q, p)
		if err != nil {
			b.Fatal(err)
		}
		bench(b, shares)
	})
	b.Run("uniform", func(b *testing.B) {
		bench(b, map[string]int{"x": 6, "y": 6, "z": 6})
	})
}

// Ablation: the avalanche finalizer in the partition hash. Without it,
// values differing only in a high byte (exactly what block-structured
// generators produce) have hashes with a constant 64-bit difference,
// so per-dimension coordinates correlate and grid cells load up
// diagonally. The raw-FNV router below reproduces the pathology the
// finalizer fixes.
func BenchmarkAblationHashFinalizer(b *testing.B) {
	m, p := 20000, 16 // 4×4 grid over (x, y)
	inst := workload.JoinSkewFree(m)
	rawFNV := func(v rel.Value) uint64 {
		const prime = 1099511628211
		h := uint64(14695981039346656037)
		u := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= prime
			u >>= 8
		}
		return h
	}
	route := func(hash func(rel.Value) uint64) mpc.Router {
		return mpc.RouterFunc(func(f rel.Fact) []int {
			// Grid cell (hx(col0) mod 4, hy(col1) mod 4).
			hx := int(hash(f.Tuple[0]) % 4)
			hy := int(hash(f.Tuple[1]) % 4)
			return []int{hx*4 + hy}
		})
	}
	bench := func(b *testing.B, r mpc.Router) {
		var last *mpc.Cluster
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			last = runLoadOnly(b, p, inst, mpc.Round{Route: r})
		}
		b.ReportMetric(float64(last.MaxLoad()), "maxload")
		b.ReportMetric(float64(2*m)/float64(p), "uniform-ref")
	}
	b.Run("avalanched", func(b *testing.B) {
		bench(b, route(func(v rel.Value) uint64 { return (rel.Tuple{v}).Hash() }))
	})
	b.Run("raw-fnv", func(b *testing.B) {
		bench(b, route(rawFNV))
	})
}

// Ablation: Yannakakis with vs without the semijoin full reduction —
// projection discipline alone does not control intermediates on
// dangling-heavy data.
func BenchmarkAblationSemijoinReduction(b *testing.B) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(a, dd) :- R0(a, b), R1(b, c), R2(c, dd)")
	inst := hubInstance(400, 10)
	for _, reduce := range []bool{true, false} {
		reduce := reduce
		name := "with-reduction"
		if !reduce {
			name = "without-reduction"
		}
		b.Run(name, func(b *testing.B) {
			var st *gym.Stats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, s, err := gym.YannakakisWith(q, inst, reduce)
				if err != nil {
					b.Fatal(err)
				}
				st = s
			}
			b.ReportMetric(float64(st.MaxIntermediate), "max-intermediate")
		})
	}
}

// Ablation: the tractable full-query transfer path vs the general
// minimality-checking path (Theorem 4.14's complexity discussion).
func BenchmarkAblationTransferFullPath(b *testing.B) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	qp := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z)")
	b.Run("full-fast-path", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := pc.CoversFull(q, qp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("general-path", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := pc.Covers(q, qp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// EXP-CBS: worst-case-optimal generic join vs the binary-join plan on
// the classic adversarial triangle instance where EVERY pairwise join
// is quadratic (n² intermediate) yet the output is Θ(n) — the regime
// where Chu-Balazinska-Suciu pair HyperCube with a worst-case-optimal
// local algorithm — and on one server's fragment of a p = 4 HyperCube
// round over skew-free triangle data, where no pairwise join blows up
// and the binary plan wins: the reason the generic join is a plan's
// explicit choice, not the engine for every cyclic query.
func BenchmarkGenericJoin(b *testing.B) {
	d := rel.NewDict()
	q := triangleQ(d)
	n := 300
	a := func(i int) rel.Value { return rel.Value(i) }
	bb := func(i int) rel.Value { return rel.Value(100000 + i) }
	cc := func(i int) rel.Value { return rel.Value(200000 + i) }
	fan := rel.NewInstance()
	fan.Add(rel.NewFact("R", a(0), bb(0)))
	fan.Add(rel.NewFact("S", bb(0), cc(0)))
	fan.Add(rel.NewFact("T", cc(0), a(0)))
	for i := 1; i <= n; i++ {
		fan.Add(rel.NewFact("R", a(i), bb(0)))
		fan.Add(rel.NewFact("R", a(0), bb(i)))
		fan.Add(rel.NewFact("S", bb(i), cc(0)))
		fan.Add(rel.NewFact("S", bb(0), cc(i)))
		fan.Add(rel.NewFact("T", cc(i), a(0)))
		fan.Add(rel.NewFact("T", cc(0), a(i)))
	}
	g, err := hypercube.NewOptimalGrid(q, 4, 11)
	if err != nil {
		b.Fatal(err)
	}
	fragment := runLoadOnly(b, g.P(), workload.TriangleSkewFree(20000), hypercube.HyperCubeRound(g)).Server(0)
	for _, c := range []struct {
		name string
		inst *rel.Instance
		want int
	}{
		{"", fan, 3*n + 1},
		{"triangle-fragment/", fragment, cq.Evaluate(q, fragment).Len()},
	} {
		b.Run(c.name+"worst-case-optimal", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := cq.GenericJoin(q, c.inst)
				if err != nil || out.Len() != c.want {
					b.Fatalf("%v / %d (want %d)", err, out.Len(), c.want)
				}
			}
			reportOwnAllocs(b, func() { cq.GenericJoin(q, c.inst) })
		})
		b.Run(c.name+"binary-join-plan", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cq.Evaluate(q, c.inst).Len() != c.want {
					b.Fatal("wrong result")
				}
			}
			reportOwnAllocs(b, func() { cq.Evaluate(q, c.inst) })
		})
	}
}

// ——— Sustained-update ingestion: delta rounds + ApplyUpdate ———
//
// The headline perf numbers of the incremental engine: facts/sec while
// maintaining a view under update batches, against from-scratch
// re-evaluation of the same final input. Every iteration applies an
// identically-shaped batch on fresh values, so the per-iteration
// domain metrics (deltacomm, rounds) are exact constants that
// benchdiff pins, while facts/sec carries the throughput claim (the
// "/sec" suffix marks it higher-is-better). The acceptance shape: incr
// beats scratch by ≥10x at the small batch sizes, converging as the
// batch grows to dominate the resident state.

// tcMaintainBatch builds one update batch for the maintained-TC
// benchmarks: `size` fresh sources all pointing at node 197 of the
// resident 200-path, so each edge's consequences are exactly 4 closure
// facts (→198, 199, 200) and 4 delta rounds, independent of how much
// state has accumulated.
func tcMaintainBatch(iter, size int) *rel.Instance {
	b := rel.NewInstance()
	for k := 0; k < size; k++ {
		u := rel.Value(1<<21 + iter*size + k)
		b.Add(rel.NewFact("E", u, 197))
	}
	return b
}

func BenchmarkTCMaintain(b *testing.B) {
	const p, seed = 5, 11
	base := workload.PathGraph(200)
	for _, size := range []int{1, 100, 10000} {
		size := size
		b.Run(fmt.Sprintf("incr/batch=%d", size), func(b *testing.B) {
			c := mpc.NewCluster(p)
			if err := c.RunDelta(gym.DeltaTCProgram(p, seed), base); err != nil {
				b.Fatal(err)
			}
			comm0, rounds0 := c.DeltaCommTotal(), c.Rounds()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.ApplyUpdate(tcMaintainBatch(i, size)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "facts/sec")
			b.ReportMetric(float64(c.DeltaCommTotal()-comm0)/float64(b.N), "deltacomm")
			b.ReportMetric(float64(c.Rounds()-rounds0)/float64(b.N), "rounds")
		})
		b.Run(fmt.Sprintf("scratch/batch=%d", size), func(b *testing.B) {
			full := base.Clone()
			full.AddAll(tcMaintainBatch(0, size))
			var last *mpc.Cluster
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := mpc.NewCluster(p)
				if err := c.RunDelta(gym.DeltaTCProgram(p, seed), full); err != nil {
					b.Fatal(err)
				}
				last = c
			}
			b.StopTimer()
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "facts/sec")
			b.ReportMetric(float64(last.TotalComm()), "totalcomm")
			b.ReportMetric(float64(last.Rounds()), "rounds")
		})
	}
}

// triMaintainBatch builds one update batch for the maintained cascade
// triangle view: `triples` complete fresh triangles (3 facts each) on
// values disjoint from the base blocks, so every triple derives
// exactly one K fact and one H fact in the fixed 2-round cascade.
func triMaintainBatch(iter, triples int) *rel.Instance {
	b := rel.NewInstance()
	for k := 0; k < triples; k++ {
		j := rel.Value(1<<21 + iter*triples + k)
		x := rel.Value(1<<30) + j
		y := rel.Value(1<<30+1<<26) + j
		z := rel.Value(1<<30+2<<26) + j
		b.Add(rel.NewFact("R", x, y))
		b.Add(rel.NewFact("S", y, z))
		b.Add(rel.NewFact("T", z, x))
	}
	return b
}

func BenchmarkTriangleMaintain(b *testing.B) {
	const p, seed = 6, 11
	base := workload.TriangleSkewFree(2000)
	for _, triples := range []int{1, 33, 3333} {
		triples := triples
		facts := 3 * triples
		b.Run(fmt.Sprintf("incr/facts=%d", facts), func(b *testing.B) {
			c := mpc.NewCluster(p)
			if err := c.RunDelta(gym.DeltaCascadeTriangleProgram(p, seed), base); err != nil {
				b.Fatal(err)
			}
			comm0, rounds0 := c.DeltaCommTotal(), c.Rounds()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.ApplyUpdate(triMaintainBatch(i, triples)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(facts)*float64(b.N)/b.Elapsed().Seconds(), "facts/sec")
			b.ReportMetric(float64(c.DeltaCommTotal()-comm0)/float64(b.N), "deltacomm")
			b.ReportMetric(float64(c.Rounds()-rounds0)/float64(b.N), "rounds")
		})
		b.Run(fmt.Sprintf("scratch/facts=%d", facts), func(b *testing.B) {
			full := base.Clone()
			full.AddAll(triMaintainBatch(0, triples))
			var last *mpc.Cluster
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := mpc.NewCluster(p)
				if err := c.RunDelta(gym.DeltaCascadeTriangleProgram(p, seed), full); err != nil {
					b.Fatal(err)
				}
				last = c
			}
			b.StopTimer()
			b.ReportMetric(float64(facts)*float64(b.N)/b.Elapsed().Seconds(), "facts/sec")
			b.ReportMetric(float64(last.TotalComm()), "totalcomm")
			b.ReportMetric(float64(last.Rounds()), "rounds")
		})
	}
}

// EXP-STREAM: finite-memory streaming semijoin over a skewed stream.
func BenchmarkStreamSemiJoin(b *testing.B) {
	inst := workload.JoinSkewed(50000, 0.5)
	facts := inst.Facts()
	n := &stream.Network{
		Machines:  8,
		Key:       stream.KeyOn(map[string][]int{"R": {1}, "S": {0}}),
		Automaton: stream.SemiJoin("R", "S"),
	}
	var st *stream.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, s, err := n.Run(facts)
		if err != nil {
			b.Fatal(err)
		}
		st = s
	}
	b.ReportMetric(float64(st.MemoryPerGroup), "mem-per-group")
	b.ReportMetric(float64(st.LargestGroup), "largest-group")
}

// EXP-SCALE: bounded plan execution vs full evaluation on a large
// graph.
func BenchmarkScaleIndependence(b *testing.B) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(y, z) :- Follows(0, y), Follows(y, z)")
	cons := scale.Constraints{{Rel: "Follows", On: []int{0}, Fanout: 5}}
	plan, err := scale.Analyze(q, cons)
	if err != nil {
		b.Fatal(err)
	}
	r := newDetRand(3)
	inst := rel.NewInstance()
	users := 50000
	for j := 0; j < 5; j++ {
		inst.Add(rel.NewFact("Follows", 0, rel.Value(1+r.Intn(users-1))))
	}
	for u := 1; u < users; u++ {
		for j := 0; j < r.Intn(6); j++ {
			inst.Add(rel.NewFact("Follows", rel.Value(u), rel.Value(r.Intn(users))))
		}
	}
	b.Run("bounded-plan", func(b *testing.B) {
		var fetched int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, f, err := scale.Execute(plan, inst)
			if err != nil {
				b.Fatal(err)
			}
			fetched = f
		}
		b.ReportMetric(float64(fetched), "fetched")
	})
	b.Run("full-evaluation", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cq.Evaluate(q, inst)
		}
		b.ReportMetric(float64(inst.Len()), "fetched")
		reportOwnAllocs(b, func() { cq.Evaluate(q, inst) })
	})
}
