package mpc

import (
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/rel"
)

func chainInstance(n int) *rel.Instance {
	i := rel.NewInstance()
	for k := 0; k < n; k++ {
		i.Add(rel.NewFact("R", rel.Value(k), rel.Value(k+1)))
	}
	return i
}

func TestClusterLoadRoundRobin(t *testing.T) {
	c := NewCluster(4)
	c.LoadRoundRobin(chainInstance(10))
	total := 0
	for i := 0; i < 4; i++ {
		n := c.Server(i).Len()
		total += n
		if n < 2 || n > 3 {
			t.Errorf("server %d holds %d facts; want 2 or 3", i, n)
		}
	}
	if total != 10 {
		t.Errorf("facts lost in loading: %d", total)
	}
}

// TestLoadRoundRobinPlacement pins the placement rule through the
// relation-by-relation loader: the k-th fact in (relation, tuple) order
// lands on server k mod p, the rank running on across relations, onto
// servers that already hold data, and a server a small relation never
// reaches gets no empty relation.
func TestLoadRoundRobinPlacement(t *testing.T) {
	const p = 4
	in := chainInstance(10)
	in.Add(rel.NewFact("S", 7))
	in.Add(rel.NewFact("T", 1, 2, 3))
	in.Add(rel.NewFact("T", 0, 2, 3))
	c := NewCluster(p)
	c.LoadAt(1, rel.FromFacts(rel.NewFact("R", 100, 101)))
	c.LoadRoundRobin(in)
	want := NewCluster(p)
	want.LoadAt(1, rel.FromFacts(rel.NewFact("R", 100, 101)))
	k := 0
	in.Each(func(f rel.Fact) bool {
		want.servers[k%p].Add(f)
		k++
		return true
	})
	for s := 0; s < p; s++ {
		if !c.Server(s).Equal(want.Server(s)) {
			t.Errorf("server %d holds %v, want %v", s, c.Server(s), want.Server(s))
		}
		for _, name := range []string{"S", "T"} {
			if r := c.Server(s).Relation(name); r != nil && r.Len() == 0 {
				t.Errorf("server %d got an empty %s", s, name)
			}
		}
	}
}

func TestRunRoundAccounting(t *testing.T) {
	c := NewCluster(2)
	i := rel.MustInstance(rel.NewDict(), "R(1,2)", "R(3,4)", "R(5,6)")
	c.LoadRoundRobin(i)
	stats, err := c.RunRound(Round{Name: "bcast", Route: Broadcast(2)})
	if err != nil {
		t.Fatal(err)
	}
	// Every fact goes to both servers: total = 6, max per server = 3.
	if stats.TotalComm != 6 || stats.MaxLoad != 3 {
		t.Errorf("stats = %+v", stats)
	}
	if c.Rounds() != 1 || c.TotalComm() != 6 || c.MaxLoad() != 3 {
		t.Errorf("cluster aggregates wrong")
	}
	for s := 0; s < 2; s++ {
		if c.Server(s).Len() != 3 {
			t.Errorf("server %d has %d facts after broadcast", s, c.Server(s).Len())
		}
	}
	if c.Output().Len() != 3 {
		t.Errorf("output = %d facts", c.Output().Len())
	}
}

func TestRunRoundComputePhase(t *testing.T) {
	d := rel.NewDict()
	c := NewCluster(3)
	c.LoadRoundRobin(rel.MustInstance(d, "R(a,b)", "R(b,c)", "R(c,d)", "S(b,x)", "S(c,y)"))
	q := cq.MustParse(d, "J(x, y, z) :- R(x, y), S(y, z)")
	err := c.Run(Round{
		Name:  "repartition-join",
		Route: ByRelation(map[string]Router{"R": HashOn(3, []int{1}, 0), "S": HashOn(3, []int{0}, 0)}),
		Compute: func(_ int, local *rel.Instance) *rel.Instance {
			return cq.Output(q, local)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := rel.MustInstance(d, "J(a,b,x)", "J(b,c,y)")
	if !c.Output().Equal(want) {
		t.Errorf("join output = %v, want %v", c.Output().StringWith(d), want.StringWith(d))
	}
}

func TestRouteOutOfRange(t *testing.T) {
	c := NewCluster(2)
	c.LoadRoundRobin(chainInstance(1))
	_, err := c.RunRound(Round{Route: RouterFunc(func(rel.Fact) []int { return []int{7} })})
	if err == nil {
		t.Errorf("out-of-range destination accepted")
	}
}

func TestDroppedFacts(t *testing.T) {
	c := NewCluster(2)
	c.LoadRoundRobin(chainInstance(4))
	// Router drops everything.
	stats, err := c.RunRound(Round{Route: ByRelation(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalComm != 0 || c.Output().Len() != 0 {
		t.Errorf("dropped facts still travelled: %+v", stats)
	}
}

func TestMultiRoundStatsAccumulate(t *testing.T) {
	c := NewCluster(2)
	c.LoadRoundRobin(chainInstance(4))
	if err := c.Run(
		Round{Name: "r1", Route: HashOn(2, []int{0}, 0)},
		Round{Name: "r2", Route: HashOn(2, []int{1}, 99)},
	); err != nil {
		t.Fatal(err)
	}
	if c.Rounds() != 2 {
		t.Errorf("rounds = %d", c.Rounds())
	}
	if c.Stats()[0].Name != "r1" || c.Stats()[1].Name != "r2" {
		t.Errorf("round names lost")
	}
	if c.TotalComm() != 8 {
		t.Errorf("total communication = %d, want 8 (4 facts × 2 rounds)", c.TotalComm())
	}
}

func TestHashOnDeterministicAndSeeded(t *testing.T) {
	r1 := HashOn(8, []int{0}, 0)
	r2 := HashOn(8, []int{0}, 12345)
	f := rel.NewFact("R", 42, 7)
	if r1.Route(f)[0] != r1.Route(f)[0] {
		t.Errorf("router nondeterministic")
	}
	diff := false
	for v := rel.Value(0); v < 64; v++ {
		g := rel.NewFact("R", v, 0)
		if r1.Route(g)[0] != r2.Route(g)[0] {
			diff = true
			break
		}
	}
	if !diff {
		t.Errorf("seed has no effect on routing")
	}
}

func TestLoadAt(t *testing.T) {
	d := rel.NewDict()
	c := NewCluster(2)
	c.LoadAt(1, rel.MustInstance(d, "R(a,b)"))
	if c.Server(0).Len() != 0 || c.Server(1).Len() != 1 {
		t.Errorf("LoadAt misplaced facts")
	}
}

func TestNewClusterPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("zero-server cluster accepted")
		}
	}()
	NewCluster(0)
}

func TestDuplicateDeliveriesCounted(t *testing.T) {
	// Two servers each hold a copy of the same fact; both send it to
	// server 0. Load counts deliveries (2), data is deduplicated (1).
	d := rel.NewDict()
	c := NewCluster(2)
	f := rel.MustInstance(d, "R(a,b)")
	c.LoadAt(0, f)
	c.LoadAt(1, f)
	stats, err := c.RunRound(Round{Route: RouterFunc(func(rel.Fact) []int { return []int{0} })})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Received[0] != 2 {
		t.Errorf("deliveries = %d, want 2", stats.Received[0])
	}
	if c.Server(0).Len() != 1 {
		t.Errorf("server kept %d copies", c.Server(0).Len())
	}
}
