package mapreduce

import (
	"fmt"
	"math"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

func TestJoinJobMatchesCentralized(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z)")
	inst := workload.JoinSkewed(150, 0.2)
	want := cq.Output(q, inst)

	job, err := JoinJob(q)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := Run(8, inst, job)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("MR join output differs from centralized")
	}
	if len(stats) != 1 || stats[0].TotalComm != 300 {
		t.Errorf("stats = %+v; every tuple should be shuffled exactly once", stats)
	}
}

func TestJoinJobSkewLoad(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z)")
	m := 1000
	inst := workload.JoinSkewed(m, 0.5)
	job, err := JoinJob(q)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Run(16, inst, job)
	if err != nil {
		t.Fatal(err)
	}
	// The heavy key carries m tuples (half of R plus half of S) to one
	// reducer: the hallmark of repartition skew.
	if stats[0].MaxLoad < m {
		t.Errorf("max load %d; expected ≥ %d from the heavy hitter", stats[0].MaxLoad, m)
	}
}

func TestJoinJobErrors(t *testing.T) {
	d := rel.NewDict()
	if _, err := JoinJob(cq.MustParse(d, "H(x) :- R(x)")); err == nil {
		t.Errorf("single atom accepted")
	}
	if _, err := JoinJob(cq.MustParse(d, "H(x, z) :- R(x, y), R(y, z)")); err == nil {
		t.Errorf("self join accepted")
	}
	if _, err := JoinJob(cq.MustParse(d, "H(x, y) :- R(x), S(y)")); err == nil {
		t.Errorf("cross product accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if _, _, err := Run(0, rel.NewInstance()); err == nil {
		t.Errorf("zero reducers accepted")
	}
	if _, _, err := Run(2, rel.NewInstance(), Job{Name: "bad"}); err == nil {
		t.Errorf("job without map/reduce accepted")
	}
}

func TestTransitiveClosureLinear(t *testing.T) {
	g := workload.PathGraph(12)
	res, err := TransitiveClosure(4, g, "E", false)
	if err != nil {
		t.Fatal(err)
	}
	want := SemiNaiveClosure(g, "E")
	if !res.Closure.Equal(want) {
		t.Errorf("linear TC wrong: %d vs %d facts", res.Closure.Len(), want.Len())
	}
	// Path of 12 edges: closure has 12·13/2 = 78 pairs.
	if res.Closure.Len() != 78 {
		t.Errorf("closure size = %d, want 78", res.Closure.Len())
	}
}

func TestTransitiveClosureDoubling(t *testing.T) {
	g := workload.PathGraph(32)
	lin, err := TransitiveClosure(4, g, "E", false)
	if err != nil {
		t.Fatal(err)
	}
	dbl, err := TransitiveClosure(4, g, "E", true)
	if err != nil {
		t.Fatal(err)
	}
	if !lin.Closure.Equal(dbl.Closure) {
		t.Fatalf("linear and doubling closures differ")
	}
	// Doubling needs O(log n) rounds; linear needs Θ(n).
	if dbl.Rounds > int(math.Ceil(math.Log2(32)))+2 {
		t.Errorf("doubling used %d rounds; want ≈ log₂(32)+1", dbl.Rounds)
	}
	if lin.Rounds < 31 {
		t.Errorf("linear used %d rounds; want ≈ 31", lin.Rounds)
	}
	if dbl.Rounds >= lin.Rounds {
		t.Errorf("doubling (%d rounds) not faster than linear (%d)", dbl.Rounds, lin.Rounds)
	}
}

func TestTransitiveClosureCycle(t *testing.T) {
	g := workload.CycleGraph(6)
	res, err := TransitiveClosure(4, g, "E", true)
	if err != nil {
		t.Fatal(err)
	}
	// On a cycle every ordered pair (including self) is reachable.
	if res.Closure.Len() != 36 {
		t.Errorf("cycle closure = %d pairs, want 36", res.Closure.Len())
	}
	if !res.Closure.Equal(SemiNaiveClosure(g, "E")) {
		t.Errorf("cycle closure differs from semi-naive")
	}
}

func TestTransitiveClosureRandomAgainstSemiNaive(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := workload.RandomGraph(15, 25, seed)
		for _, doubling := range []bool{false, true} {
			res, err := TransitiveClosure(3, g, "E", doubling)
			if err != nil {
				t.Fatal(err)
			}
			want := SemiNaiveClosure(g, "E")
			if !res.Closure.Equal(want) {
				t.Fatalf("seed %d doubling=%v: closure mismatch", seed, doubling)
			}
		}
	}
}

func TestTransitiveClosureEmpty(t *testing.T) {
	res, err := TransitiveClosure(2, rel.NewInstance(), "E", false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Closure.Len() != 0 {
		t.Errorf("closure of empty graph nonempty")
	}
}

func TestSemiJoinJob(t *testing.T) {
	d := rel.NewDict()
	inst := rel.MustInstance(d, "R(a,b)", "R(c,d)", "S(b)", "S(x)")
	job, err := SemiJoinJob("R", "S", []int{1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Run(4, inst, job)
	if err != nil {
		t.Fatal(err)
	}
	want := rel.MustInstance(d, "R(a,b)")
	if !out.Equal(want) {
		t.Errorf("semijoin = %v, want %v", out.StringWith(d), want.StringWith(d))
	}
	if _, err := SemiJoinJob("R", "R", []int{0}, []int{0}); err == nil {
		t.Errorf("same-name semijoin accepted")
	}
	if _, err := SemiJoinJob("R", "S", []int{0, 1}, []int{0}); err == nil {
		t.Errorf("ragged columns accepted")
	}
}

// A Yannakakis-flavoured MR program: semijoin-reduce then join; the
// reduction shrinks what the join job must shuffle.
func TestSemiJoinReducesShuffle(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(x, y, z) :- R(x, y), S(y, z)")
	inst := rel.NewInstance()
	for k := 0; k < 200; k++ {
		inst.Add(rel.NewFact("R", rel.Value(k), rel.Value(1000+k)))
	}
	for k := 0; k < 20; k++ { // only 10% of R joins
		inst.Add(rel.NewFact("S", rel.Value(1000+k), rel.Value(2000+k)))
	}
	join, err := JoinJob(q)
	if err != nil {
		t.Fatal(err)
	}
	// Direct join: shuffles all 220 tuples.
	direct, dStats, err := Run(4, inst, join)
	if err != nil {
		t.Fatal(err)
	}
	// Reduce first: R ⋉ S, then join the survivors.
	semi, err := SemiJoinJob("R", "S", []int{1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	reduced, _, err := Run(4, inst, semi)
	if err != nil {
		t.Fatal(err)
	}
	reduced.AddAll(inst.Filter(func(f rel.Fact) bool { return f.Rel == "S" }))
	viaSemi, jStats, err := Run(4, reduced, join)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(viaSemi) {
		t.Fatalf("semijoin-reduced plan changed the answer")
	}
	if jStats[0].TotalComm >= dStats[0].TotalComm {
		t.Errorf("reduction did not shrink the join shuffle: %d vs %d",
			jStats[0].TotalComm, dStats[0].TotalComm)
	}
}

// Pins the semi-naive linear plan's shipped volume on a fixed path
// graph. Path 0→…→8 (n = 8 edges): round r ships the frontier (the
// n−r+1 paths of length r) plus the n base edges, and the last
// productive round is r = n−1, with round n shipping only the final
// frontier fact plus edges and deriving nothing. TotalComm is
// therefore Σ_{r=1..n} (n−r+1+n) = n(n+1)/2 + n² = 36 + 64 = 100 —
// versus Σ_r (|TC_r| + n) ≈ 200 for the naive plan that re-ships the
// whole closure every round. A regression here means the linear plan
// stopped being semi-naive.
func TestTransitiveClosureLinearShipsOnlyFrontier(t *testing.T) {
	g := workload.PathGraph(8)
	res, err := TransitiveClosure(4, g, "E", false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Closure.Equal(SemiNaiveClosure(g, "E")) {
		t.Fatalf("closure wrong")
	}
	if res.Closure.Len() != 36 {
		t.Errorf("closure size = %d, want 36", res.Closure.Len())
	}
	if res.Rounds != 8 {
		t.Errorf("rounds = %d, want 8", res.Rounds)
	}
	tot := 0
	for _, s := range res.Stats {
		tot += s.TotalComm
	}
	if tot != 100 {
		t.Errorf("semi-naive linear TC shipped %d facts, want 100", tot)
	}
}

// SemiJoinJob reduces relation left by relation right on the given
// column lists (left ⋉ right): µ keys both sides on the join values,
// ρ emits the left tuples of groups that also contain a right tuple.
// Together with JoinJob this gives the semi-join algebra fragment that
// Neven et al.'s distributed-streaming formalization of MapReduce
// expresses (Section 3.2's discussion of [47]).
func SemiJoinJob(left, right string, lCols, rCols []int) (Job, error) {
	if left == right {
		return Job{}, fmt.Errorf("mapreduce: semijoin needs distinct relation names")
	}
	if len(lCols) != len(rCols) {
		return Job{}, fmt.Errorf("mapreduce: column lists differ in length")
	}
	return Job{
		Name: "semijoin " + left + "⋉" + right,
		Map: func(f rel.Fact) []Pair {
			switch f.Rel {
			case left:
				return []Pair{{Key: f.Tuple.Project(lCols), Value: f}}
			case right:
				return []Pair{{Key: f.Tuple.Project(rCols), Value: f}}
			}
			return nil
		},
		Reduce: func(_ rel.Tuple, values *rel.Instance) []rel.Fact {
			r := values.Relation(right)
			if r == nil || r.Len() == 0 {
				return nil
			}
			var out []rel.Fact
			if l := values.Relation(left); l != nil {
				l.Each(func(t rel.Tuple) bool {
					out = append(out, rel.Fact{Rel: left, Tuple: t})
					return true
				})
			}
			return out
		},
	}, nil
}

// JoinJob builds the classic repartition-join job for a two-atom
// query: µ keys each fact by its join-attribute values, ρ evaluates
// the query within each group. This is Example 3.1(1a) phrased as
// MapReduce.
func JoinJob(q *cq.CQ) (Job, error) {
	if len(q.Body) != 2 || q.HasNegation() {
		return Job{}, fmt.Errorf("mapreduce: JoinJob wants a two-atom positive query")
	}
	l, r := q.Body[0], q.Body[1]
	if l.Rel == r.Rel {
		return Job{}, fmt.Errorf("mapreduce: self-join %s not supported by JoinJob", l.Rel)
	}
	lCols, rCols := cq.JoinColumns(l, r)
	if len(lCols) == 0 {
		return Job{}, fmt.Errorf("mapreduce: atoms share no variables")
	}
	return Job{
		Name: "join " + l.Rel + "⋈" + r.Rel,
		Map: func(f rel.Fact) []Pair {
			switch f.Rel {
			case l.Rel:
				return []Pair{{Key: f.Tuple.Project(lCols), Value: f}}
			case r.Rel:
				return []Pair{{Key: f.Tuple.Project(rCols), Value: f}}
			}
			return nil
		},
		Reduce: func(_ rel.Tuple, values *rel.Instance) []rel.Fact {
			return cq.Output(q, values).Facts()
		},
	}, nil
}
