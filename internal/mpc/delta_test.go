package mpc

import (
	"fmt"
	"strings"
	"testing"

	"mpclogic/internal/rel"
)

// countdownProgram is a minimal recursive delta program used to
// exercise the driver: it maintains N = { n-k | N-fact n, 0 ≤ k ≤ n },
// i.e. the downward closure of every loaded natural. The frontier
// carries one generation of decrements per step, so fixpoint length is
// data-dependent — exactly the shape the fixpoint loop must handle.
func countdownProgram(p int) DeltaProgram {
	h := HashOn(p, []int{0}, 0xD)
	fold := func(_ int, local *rel.Instance) *rel.Instance {
		newN := local.FoldDelta(DeltaName("N"), "N", 1)
		if newN.Len() == 0 {
			return local
		}
		next := rel.NewRelationSize(DeltaName("N"), 1, newN.Len())
		newN.Each(func(t rel.Tuple) bool {
			if t[0] > 0 {
				next.Add(rel.Tuple{t[0] - 1})
			}
			return true
		})
		if next.Len() > 0 {
			local.SetRelation(next)
		}
		return local
	}
	return DeltaProgram{
		Name: "countdown",
		Inject: func(batch int) []Round {
			return []Round{{
				Name:      roundName("countdown inject", batch),
				Resident:  []string{"N"},
				DeltaRels: []string{DeltaName("N")},
				Route:     ByRelation(map[string]Router{DeltaName("N"): h}),
				Compute:   fold,
			}}
		},
		Step: func(k int) Round {
			return Round{
				Name:      roundName("countdown step", k),
				Resident:  []string{"N"},
				DeltaRels: []string{DeltaName("N")},
				Route:     ByRelation(map[string]Router{DeltaName("N"): h}),
				Compute:   fold,
			}
		},
		Frontier: []string{DeltaName("N")},
	}
}

func roundName(prefix string, k int) string {
	return fmt.Sprintf("%s %d", prefix, k)
}

func naturals(vals ...int) *rel.Instance {
	i := rel.NewInstance()
	for _, v := range vals {
		i.Add(rel.NewFact("N", rel.Value(v)))
	}
	return i
}

func TestRunDeltaReachesFixpoint(t *testing.T) {
	c := NewCluster(4)
	if err := c.RunDelta(countdownProgram(4), naturals(3)); err != nil {
		t.Fatal(err)
	}
	n := c.Output().Relation("N")
	if n == nil || n.Len() != 4 {
		t.Fatalf("closure of {3} = %v, want {0,1,2,3}", c.Output())
	}
	// 1 inject + 3 steps (frontier 2,1,0) drain the countdown.
	if c.Rounds() != 4 {
		t.Fatalf("executed %d rounds, want 4\n%s", c.Rounds(), c.LogicalTrace())
	}
}

func TestApplyUpdateMatchesFromScratch(t *testing.T) {
	inc := NewCluster(4)
	if err := inc.RunDelta(countdownProgram(4), naturals(3)); err != nil {
		t.Fatal(err)
	}
	if err := inc.ApplyUpdate(naturals(6)); err != nil {
		t.Fatal(err)
	}
	if err := inc.ApplyUpdate(naturals(2, 9)); err != nil { // 2 is already closed over
		t.Fatal(err)
	}

	scratch := NewCluster(4)
	if err := scratch.RunDelta(countdownProgram(4), naturals(3, 6, 2, 9)); err != nil {
		t.Fatal(err)
	}
	if got, want := inc.Output().String(), scratch.Output().String(); got != want {
		t.Fatalf("incremental output %s != from-scratch %s", got, want)
	}
	// Per-server resident state must agree too: placement is a pure
	// hash of fact content, independent of batching.
	for s := 0; s < 4; s++ {
		if !inc.Server(s).Equal(scratch.Server(s)) {
			t.Fatalf("server %d state differs: %s vs %s", s, inc.Server(s), scratch.Server(s))
		}
	}
}

func TestApplyUpdateCostScalesWithDelta(t *testing.T) {
	c := NewCluster(4)
	if err := c.RunDelta(countdownProgram(4), naturals(50)); err != nil {
		t.Fatal(err)
	}
	base := c.Rounds()
	// An already-closed fact must cost one inject round shipping one
	// fact and derive nothing, regardless of the 51 resident facts.
	if err := c.ApplyUpdate(naturals(25)); err != nil {
		t.Fatal(err)
	}
	if got := c.Rounds() - base; got != 1 {
		t.Fatalf("no-op update ran %d rounds, want 1", got)
	}
	last := c.LastStats()
	if last.TotalComm != 1 || last.DeltaComm != 1 {
		t.Fatalf("no-op update shipped total=%d delta=%d, want 1/1", last.TotalComm, last.DeltaComm)
	}
}

func TestResidentRelationsBypassCommunication(t *testing.T) {
	c := NewCluster(2)
	c.LoadAt(0, rel.FromFacts(rel.NewFact("R", 1, 2), rel.NewFact("R", 3, 4)))

	// Round 1 has no Resident declaration: R is dropped unless routed.
	// Round 2 declares R resident with no routing at all: the facts
	// must survive with zero communication.
	keepAll := Round{Name: "materialize", Route: Broadcast(2), Compute: func(_ int, local *rel.Instance) *rel.Instance { return local }}
	if _, err := c.RunRound(keepAll); err != nil {
		t.Fatal(err)
	}
	before := c.Server(0).Relation("R")
	st, err := c.RunRound(Round{Name: "carry", Resident: []string{"R"}})
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalComm != 0 || st.MaxLoad != 0 {
		t.Fatalf("resident carry cost total=%d maxload=%d, want 0/0", st.TotalComm, st.MaxLoad)
	}
	after := c.Server(0).Relation("R")
	if after != before {
		t.Fatalf("resident relation was copied, not carried by reference")
	}
	if after.Len() != 2 {
		t.Fatalf("resident relation lost facts: %v", after.Tuples())
	}
}

// The resident skip is by relation name, cluster-wide, and facts keep
// their relation names on the wire, so RunRound can never route facts
// into a resident name through the public API; the adoptResidents
// conflict check is a defensive invariant, exercised here directly.
func TestAdoptResidentsRejectsRoutedConflicts(t *testing.T) {
	c := NewCluster(2)
	c.LoadAt(0, rel.FromFacts(rel.NewFact("R", 1)))
	r := Round{Name: "conflict", Resident: []string{"R"}}

	inboxes := []*rel.Instance{rel.NewInstance(), rel.NewInstance()}
	inboxes[1].Add(rel.NewFact("R", 9))
	if err := c.adoptResidents(r, inboxes); err == nil || !strings.Contains(err.Error(), "resident relation") {
		t.Fatalf("routed conflict not detected: %v", err)
	}

	// Clean inboxes adopt the resident by reference, and only on the
	// servers that actually hold it.
	inboxes = []*rel.Instance{rel.NewInstance(), rel.NewInstance()}
	if err := c.adoptResidents(r, inboxes); err != nil {
		t.Fatal(err)
	}
	if inboxes[0].Relation("R") != c.Server(0).Relation("R") {
		t.Fatal("resident not adopted by reference")
	}
	if inboxes[1].Relation("R") != nil {
		t.Fatal("resident materialized on a server that never had it")
	}
}

func TestDeltaCommCountsOnlyDeltaRelations(t *testing.T) {
	c := NewCluster(2)
	c.LoadAt(0, rel.FromFacts(
		rel.NewFact("ΔE", 1, 2), rel.NewFact("ΔE", 3, 4),
		rel.NewFact("F", 5, 6),
	))
	st, err := c.RunRound(Round{
		Name:      "mixed",
		DeltaRels: []string{"ΔE"},
		Route:     Broadcast(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalComm != 6 || st.DeltaComm != 4 {
		t.Fatalf("total=%d delta=%d, want 6 and 4", st.TotalComm, st.DeltaComm)
	}
	s := st.LogicalString()
	if !strings.Contains(s, "delta communication 4") {
		t.Fatalf("LogicalString misses delta communication: %s", s)
	}
}

func TestLogicalStringUnchangedWithoutDelta(t *testing.T) {
	s := RoundStats{Name: "r", Received: []int{1, 2}, MaxLoad: 2, TotalComm: 3}
	if got := s.LogicalString(); got != "round r: received [1 2], max load 2, total communication 3" {
		t.Fatalf("pre-delta LogicalString changed: %q", got)
	}
	if got := s.String(); strings.Contains(got, "delta") {
		t.Fatalf("pre-delta String mentions delta: %q", got)
	}
}

func TestRestoreDeltaRoundTrip(t *testing.T) {
	straight := NewCluster(4)
	if err := straight.RunDelta(countdownProgram(4), naturals(5)); err != nil {
		t.Fatal(err)
	}
	if err := straight.ApplyUpdate(naturals(8)); err != nil {
		t.Fatal(err)
	}
	if err := straight.ApplyUpdate(naturals(11)); err != nil {
		t.Fatal(err)
	}

	// Same schedule, but checkpointed and restored between batches.
	c := NewCluster(4, WithCheckpoints())
	if err := c.RunDelta(countdownProgram(4), naturals(5)); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyUpdate(naturals(8)); err != nil {
		t.Fatal(err)
	}
	ck := c.Checkpoint()
	restored, err := RestoreDelta(ck, countdownProgram(4))
	if err != nil {
		t.Fatal(err)
	}
	if restored.DeltaBatches() != 2 {
		t.Fatalf("restored batch counter = %d, want 2", restored.DeltaBatches())
	}
	if err := restored.ApplyUpdate(naturals(11)); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Output().String(), straight.Output().String(); got != want {
		t.Fatalf("restored output %s != straight-through %s", got, want)
	}
	if got, want := restored.LogicalTrace(), straight.LogicalTrace(); got != want {
		t.Fatalf("restored trace differs:\n%s\nvs\n%s", got, want)
	}
}

func TestRestoreDeltaRejectsMidInjectionCheckpoint(t *testing.T) {
	// A two-round Inject whose second round always fails: the rolling
	// checkpoint then sits between the batch's rounds, which
	// RestoreDelta must refuse.
	prog := DeltaProgram{
		Name: "two-round",
		Inject: func(batch int) []Round {
			ok := Round{Name: roundName("ok", batch), DeltaRels: []string{DeltaName("N")},
				Route: ByRelation(map[string]Router{DeltaName("N"): HashOn(2, []int{0}, 1)}),
				Compute: func(_ int, local *rel.Instance) *rel.Instance {
					local.FoldDelta(DeltaName("N"), "N", 1)
					return local
				}}
			bad := Round{Name: roundName("bad", batch),
				Route: RouterFunc(func(rel.Fact) []int { return []int{99} })}
			return []Round{ok, bad}
		},
	}
	c := NewCluster(2, WithCheckpoints())
	err := c.RunDelta(prog, naturals(1, 2))
	if err == nil {
		t.Fatal("two-round program with a bad route succeeded")
	}
	if uerr := c.ApplyUpdate(naturals(3)); uerr == nil || !strings.Contains(uerr.Error(), "mid-batch") {
		t.Fatalf("broken cluster accepted another update: %v", uerr)
	}
	if _, rerr := RestoreDelta(c.Checkpoint(), prog); rerr == nil || !strings.Contains(rerr.Error(), "mid-injection") {
		t.Fatalf("mid-injection restore not rejected: %v", rerr)
	}
}

func TestRunDeltaRequiresFreshCluster(t *testing.T) {
	c := NewCluster(2)
	if _, err := c.RunRound(Round{Name: "warmup"}); err != nil {
		t.Fatal(err)
	}
	if err := c.RunDelta(countdownProgram(2), naturals(1)); err == nil {
		t.Fatal("RunDelta accepted a cluster with executed rounds")
	}
	c2 := NewCluster(2)
	if err := c2.ApplyUpdate(naturals(1)); err == nil {
		t.Fatal("ApplyUpdate accepted a cluster with no program")
	}
	if err := c2.RunDelta(countdownProgram(2), naturals(1)); err != nil {
		t.Fatal(err)
	}
	if err := c2.RunDelta(countdownProgram(2), naturals(2)); err == nil {
		t.Fatal("second RunDelta accepted")
	}
}

// DeltaBatches returns how many update batches (including the base
// load) have been fully injected; 0 when no delta program is installed.
func (c *Cluster) DeltaBatches() int {
	if c.delta == nil {
		return 0
	}
	return c.delta.batches
}
