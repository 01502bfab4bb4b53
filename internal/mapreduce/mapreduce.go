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
