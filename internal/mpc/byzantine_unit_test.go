package mpc

import (
	"strings"
	"testing"
	"time"

	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

func TestByzKindStrings(t *testing.T) {
	cases := []struct {
		k      ByzKind
		s, pas string
	}{
		{Misroute, "misroute", "misrouted"},
		{Forge, "forge", "forged"},
		{Omit, "omit", "omitted"},
	}
	for _, c := range cases {
		if c.k.String() != c.s {
			t.Errorf("%d.String() = %q, want %q", c.k, c.k.String(), c.s)
		}
		if c.k.verb() != c.pas {
			t.Errorf("%d.verb() = %q, want %q", c.k, c.k.verb(), c.pas)
		}
	}
	if got := ByzKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind renders %q, want the raw value visible", got)
	}
}

// TestByzantinePlanString: a fault plan renders its Byzantine events
// after its other counts, only when it has any, and a plan holding
// nothing else is not Empty.
func TestByzantinePlanString(t *testing.T) {
	p := NewFaultPlan().AddByzantine(ByzantineEvent{Round: 0, Src: 1, Kind: Forge, Count: 1})
	if got, want := p.String(), "fault plan: crashes=0 drops=0 dups=0 stragglers=0 byzantine=1"; got != want {
		t.Errorf("one-event plan renders %q, want %q", got, want)
	}
	if p.Empty() {
		t.Error("plan with a Byzantine event reports Empty")
	}
	p.AddCrash(1, 0, 1).AddCorrupt(0, 0, 1, 1).AddByzantine(ByzantineEvent{Round: 1, Src: 0, Kind: Omit, Count: 1})
	if got, want := p.String(), "fault plan: crashes=1 drops=0 dups=0 stragglers=0 corrupted=1 byzantine=2"; got != want {
		t.Errorf("mixed plan renders %q, want %q", got, want)
	}
	if got := NewFaultPlan().AddCrash(0, 0, 1).String(); strings.Contains(got, "byzantine") {
		t.Errorf("plan without Byzantine events renders %q", got)
	}
}

// TestPersistentReadsThePlan: a plan owes a typed failure iff one of
// its Byzantine events is Persistent.
func TestPersistentReadsThePlan(t *testing.T) {
	var nilPlan *FaultPlan
	transient := ByzantineEvent{Round: 0, Src: 1, Kind: Misroute, Count: 1}
	persistent := transient
	persistent.Persistent = true
	for _, c := range []struct {
		name string
		plan *FaultPlan
		want bool
	}{
		{"nil", nilPlan, false},
		{"crash only", NewFaultPlan().AddCrash(0, 0, 1), false},
		{"transient", NewFaultPlan().AddByzantine(transient), false},
		{"persistent among transients", NewFaultPlan().AddByzantine(transient).AddByzantine(persistent), true},
	} {
		if got := c.plan.Persistent(); got != c.want {
			t.Errorf("%s: Persistent() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestWithRoutingVerificationRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative stride did not panic")
		}
	}()
	WithRoutingVerification(-1)
}

// The round placement's edge cases: a multi-source shard clamps its
// range to p, a round with no Route places a routed fact nowhere, and a
// panicking Route condemns the fact rather than the process.
func TestLegalShardDstEdges(t *testing.T) {
	f := rel.NewFact("E", 1, 2)
	keepAll := Round{Keep: func(rel.Fact) bool { return true }}
	// Keep facts belong anywhere in the shard's source range: shard 1 of
	// chunk 3 covers sources [3, 6), clamped to [3, 4).
	if !policy.Responsible(shardPlacement(keepAll, 4, 3, 1), 3, f) {
		t.Error("Keep fact at an in-range destination flagged illegal")
	}
	if policy.Responsible(shardPlacement(keepAll, 4, 3, 1), 1, f) {
		t.Error("Keep fact below the source range accepted")
	}
	noRoute := Round{}
	if policy.Responsible(shardPlacement(noRoute, 4, 1, 0), 2, f) {
		t.Error("round without Route accepted a cross-network delivery")
	}
	panicky := Round{Route: routeFunc(func(rel.Fact) []int { panic("bad fact") })}
	if policy.Responsible(shardPlacement(panicky, 4, 1, 0), 2, f) {
		t.Error("panicking Route accepted the fact")
	}
}

type routeFunc func(rel.Fact) []int

func (r routeFunc) Route(f rel.Fact) []int { return r(f) }

func TestShardEqual(t *testing.T) {
	mk := func() *Shard {
		out := rel.NewInstance()
		out.Add(rel.NewFact("E", 1, 2))
		return &Shard{
			Outs: []*rel.Instance{nil, out},
			Sent: []int{0, 1},
		}
	}
	a, b := mk(), mk()
	if !shardEqual(a, b, 2) {
		t.Fatal("identical shards compare unequal")
	}
	// nil vs empty instance is still equal.
	b.Outs[0] = rel.NewInstance()
	if !shardEqual(a, b, 2) {
		t.Error("nil vs empty destination compares unequal")
	}
	if !shardEqual(b, a, 2) {
		t.Error("empty vs nil destination compares unequal")
	}
	// nil vs non-empty differs (both orientations).
	extra := rel.NewInstance()
	extra.Add(rel.NewFact("X", 7))
	b.Outs[0] = extra
	b.Sent[0] = a.Sent[0]
	if shardEqual(a, b, 2) || shardEqual(b, a, 2) {
		t.Error("nil vs non-empty destination compares equal")
	}
	// Differing content, counts, and Δ counts all differ.
	b = mk()
	b.Outs[1].Add(rel.NewFact("E", 9, 9))
	if shardEqual(a, b, 2) {
		t.Error("differing content compares equal")
	}
	b = mk()
	b.Sent[1] = 5
	if shardEqual(a, b, 2) {
		t.Error("differing Sent compares equal")
	}
	b = mk()
	b.DeltaSent = 3
	if shardEqual(a, b, 2) {
		t.Error("differing DeltaSent compares equal")
	}
}

// dialJitter is a pure function of (dst, attempt), bounded below 5ms,
// and not constant across attempts — the properties the backoff
// depends on.
func TestDialJitter(t *testing.T) {
	seen := map[time.Duration]bool{}
	for dst := 0; dst < 8; dst++ {
		for attempt := 0; attempt < 8; attempt++ {
			j := dialJitter(dst, attempt)
			if j != dialJitter(dst, attempt) {
				t.Fatalf("jitter(%d,%d) not deterministic", dst, attempt)
			}
			if j < 0 || j >= 5*time.Millisecond {
				t.Fatalf("jitter(%d,%d) = %v outside [0, 5ms)", dst, attempt, j)
			}
			seen[j] = true
		}
	}
	if len(seen) < 2 {
		t.Error("jitter constant over 64 (dst, attempt) pairs; senders would thunder in lockstep")
	}
}
