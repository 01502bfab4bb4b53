// Package mapreduce implements the MapReduce formalism exactly as
// Section 3 of Neven (PODS 2016) presents it: a job is a pair (µ, ρ)
// of a map function producing key-value pairs and a reduce function
// processing each key group; a program is a sequence of jobs. As the
// paper notes, every MapReduce program is an algorithm within the MPC
// model — the map/shuffle stage is a communication phase and the
// reduce stage a computation phase — so the executor here performs the
// same load accounting as the MPC simulator: the load of a reducer is
// the number of values it receives. It is an executor of its own, not
// a compilation onto mpc rounds (this package does not import mpc: a
// transitive-closure program is dozens of tiny jobs, and a cluster per
// job would cost more than the jobs); the containment is held as a law
// instead — TestJoinJobIsARepartitionRound runs the join job and the
// corresponding mpc round side by side and demands equal outputs and
// equal per-server loads.
package mapreduce

import (
	"fmt"

	"mpclogic/internal/cq"
	"mpclogic/internal/rel"
)

// Pair is a keyed value ⟨k : v⟩ emitted by a map function. Values are
// facts; keys are tuples.
type Pair struct {
	Key   rel.Tuple
	Value rel.Fact
}

// MapFunc is µ: it processes one input fact into key-value pairs.
type MapFunc func(rel.Fact) []Pair

// ReduceFunc is ρ: it processes one key group into output facts.
type ReduceFunc func(key rel.Tuple, values *rel.Instance) []rel.Fact

// Job is a MapReduce job (µ, ρ).
type Job struct {
	Name   string
	Map    MapFunc
	Reduce ReduceFunc
}

// Stats records the cost of one executed job, with the same load
// semantics as mpc.RoundStats.
type Stats struct {
	Job       string
	Received  []int
	MaxLoad   int
	TotalComm int
}

func (s Stats) String() string {
	return fmt.Sprintf("job %s: max load %d, total communication %d", s.Job, s.MaxLoad, s.TotalComm)
}

// Run executes a MapReduce program on p reducers: the output of each
// job is the input of the next, and the result of the final job is
// returned. Reducers are addressed by hashing keys.
func Run(p int, input *rel.Instance, jobs ...Job) (*rel.Instance, []Stats, error) {
	if p <= 0 {
		return nil, nil, fmt.Errorf("mapreduce: need at least one reducer")
	}
	cur := input
	var stats []Stats
	for _, job := range jobs {
		out, st, err := runJob(p, cur, job)
		if err != nil {
			return nil, stats, err
		}
		stats = append(stats, st)
		cur = out
	}
	return cur, stats, nil
}

func runJob(p int, input *rel.Instance, job Job) (*rel.Instance, Stats, error) {
	if job.Map == nil || job.Reduce == nil {
		return nil, Stats{}, fmt.Errorf("mapreduce: job %q missing map or reduce", job.Name)
	}
	type group struct {
		key    rel.Tuple
		values *rel.Instance
	}
	// Shuffle: group pairs by key; account received values per reducer.
	reducers := make([]map[string]*group, p)
	received := make([]int, p)
	for i := range reducers {
		reducers[i] = map[string]*group{}
	}
	input.Each(func(f rel.Fact) bool {
		for _, pr := range job.Map(f) {
			dst := int(pr.Key.Hash() % uint64(p))
			received[dst]++
			g, ok := reducers[dst][pr.Key.Key()]
			if !ok {
				g = &group{key: pr.Key, values: rel.NewInstance()}
				reducers[dst][pr.Key.Key()] = g
			}
			g.values.Add(pr.Value)
		}
		return true
	})
	out := rel.NewInstance()
	for _, groups := range reducers {
		for _, g := range groups {
			for _, f := range job.Reduce(g.key, g.values) {
				out.Add(f)
			}
		}
	}
	st := Stats{Job: job.Name, Received: received}
	for _, n := range received {
		st.TotalComm += n
		if n > st.MaxLoad {
			st.MaxLoad = n
		}
	}
	return out, st, nil
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
