package mapreduce_test

import (
	"fmt"
	"reflect"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mapreduce"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// Section 3: every MapReduce program is an MPC algorithm. mapreduce.Run
// is an executor of its own — this package does not import mpc — so
// the containment is held as a law instead: the repartition-join job
// and one mpc round of hypercube.RepartitionJoin (seed 0, the job's
// unseeded key hash) produce the same output and load every reducer
// exactly as the round loads the server of the same index. Both sides
// key on cq.JoinColumns, so the law also pins that analysis from its
// two callers.
func TestJoinJobIsARepartitionRound(t *testing.T) {
	d := rel.NewDict()
	twoCols := rel.NewInstance()
	for i := 0; i < 60; i++ {
		twoCols.Add(rel.NewFact("R", rel.Value(i%7), rel.Value(i%5), rel.Value(i%3)))
		twoCols.Add(rel.NewFact("S", rel.Value(i%5), rel.Value(i%4), rel.Value(i%7)))
	}
	cases := []struct {
		name, query string
		inst        *rel.Instance
	}{
		{"skew-free", "H(x, y, z) :- R(x, y), S(y, z)", workload.JoinSkewFree(200)},
		{"skewed", "H(x, y, z) :- R(x, y), S(y, z)", workload.JoinSkewed(200, 0.4)},
		{"two shared columns, one repeated", "H(x, y, w) :- R(x, y, w), S(y, y, x)", twoCols},
	}
	for _, tc := range cases {
		q := cq.MustParse(d, tc.query)
		job, err := mapreduce.JoinJob(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 3, 8} {
			name := fmt.Sprintf("%s/p=%d", tc.name, p)
			mrOut, mrStats, err := mapreduce.Run(p, tc.inst, job)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			round, err := hypercube.RepartitionJoin(q, p, 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			c := mpc.NewCluster(p)
			c.LoadRoundRobin(tc.inst)
			st, err := c.RunRound(round)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if mrOut.Len() == 0 {
				t.Errorf("%s: empty join, the law is vacuous here", name)
			}
			if !mrOut.Equal(c.Output()) {
				t.Errorf("%s: job output %d facts, round output %d", name, mrOut.Len(), c.Output().Len())
			}
			if !reflect.DeepEqual(mrStats[0].Received, st.Received) {
				t.Errorf("%s: reducers received %v, servers received %v", name, mrStats[0].Received, st.Received)
			}
		}
	}
}
