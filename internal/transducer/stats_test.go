package transducer

import (
	"testing"

	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// The accounting invariants documented on Stats, checked across the
// regimes that stress them: plain runs, silent runs (sent but never
// read), and duplication (extra copies count as Sent).
func TestStatsInvariants(t *testing.T) {
	d := rel.NewDict()
	tri := triangles(d)
	g := workload.RandomGraph(9, 20, 7)
	p := 3

	// Fault-free: every message is eventually read, so the step count
	// is exactly the p Starts plus one step per delivery.
	n := New(p, func() Program { return MonotoneBroadcast(tri) }, WithSeed(3))
	if err := n.LoadParts(hashParts(g, p)); err != nil {
		t.Fatal(err)
	}
	st, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Delivered > st.Sent {
		t.Errorf("fault-free: Delivered %d > Sent %d", st.Delivered, st.Sent)
	}
	if st.Steps != p+st.Delivered {
		t.Errorf("fault-free: Steps %d != p %d + Delivered %d", st.Steps, p, st.Delivered)
	}

	// Silent: messages are sent but never read — the strict case of
	// Delivered ≤ Sent.
	n2 := New(p, func() Program { return MonotoneBroadcast(tri) })
	if err := n2.LoadParts(hashParts(g, p)); err != nil {
		t.Fatal(err)
	}
	st2 := n2.RunSilent()
	if st2.Sent == 0 {
		t.Fatal("silent run sent nothing: workload too small to exercise the invariant")
	}
	if st2.Delivered != 0 {
		t.Errorf("silent: Delivered %d != 0", st2.Delivered)
	}

	// Duplication: injected copies inflate Sent, never Delivered past
	// it, and the step identity picks up the crash/assist terms (zero
	// here).
	n3 := New(p, func() Program { return MonotoneBroadcast(tri) }, WithSeed(3), WithDuplication(3, 17))
	if err := n3.LoadParts(hashParts(g, p)); err != nil {
		t.Fatal(err)
	}
	st3, err := n3.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st3.Duplicated == 0 {
		t.Fatal("duplication bound 3 injected nothing")
	}
	if st3.Sent != st.Sent+st3.Duplicated {
		t.Errorf("duplication: Sent %d != base Sent %d + Duplicated %d", st3.Sent, st.Sent, st3.Duplicated)
	}
	if st3.Delivered > st3.Sent {
		t.Errorf("duplication: Delivered %d > Sent %d", st3.Delivered, st3.Sent)
	}
	if st3.Steps != p+st3.Delivered+st3.Crashes+st3.Assists {
		t.Errorf("duplication: step identity violated: %+v", st3)
	}
}

// CoordinationRatio must not divide by zero on a network that never
// sent anything, and must report the control share exactly otherwise.
func TestCoordinationRatioEdgeCases(t *testing.T) {
	if r := (Stats{}).CoordinationRatio(); r != 0 {
		t.Errorf("zero-sent CoordinationRatio = %v, want 0", r)
	}
	if r := (Stats{Sent: 8, ControlSent: 2}).CoordinationRatio(); r != 0.25 {
		t.Errorf("CoordinationRatio = %v, want 0.25", r)
	}
	if r := (Stats{Sent: 5}).CoordinationRatio(); r != 0 {
		t.Errorf("pure-data CoordinationRatio = %v, want 0", r)
	}
}

// ControlFact keys on the reserved "⟂" (U+27C2) prefix, a multi-byte
// rune: the comparison must be over the full prefix bytes, not just
// the first byte — "⊥" (U+22A5) shares the leading 0xe2 — and must
// not slice out of range on relation names shorter than the prefix.
func TestControlFactPrefix(t *testing.T) {
	cases := []struct {
		name string
		want bool
	}{
		{"⟂count", true},
		{"⟂", true},
		{"⟂req", true},
		{"⊥count", false}, // U+22A5, first byte equal to the prefix's
		{"⊥", false},
		{"E", false},  // shorter than the 3-byte prefix
		{"", false},   // empty
		{"Ed", false}, // 2 bytes, still shorter than the prefix
		{"count", false},
		{"x⟂", false}, // prefix, not substring
	}
	for _, c := range cases {
		f := rel.NewFact(c.name, rel.Value(0))
		if got := ControlFact(f); got != c.want {
			t.Errorf("ControlFact(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

// ControlSent counts exactly the control-plane messages: the
// coordinated protocol's done-round is its only control traffic, and
// its size is known in closed form (each node broadcasts one done fact
// to the p-1 others).
func TestControlSentAccounting(t *testing.T) {
	d := rel.NewDict()
	open := openTriangles(d)
	g := workload.RandomGraph(9, 20, 7)
	p := 4
	n := New(p, func() Program { return &Coordinated{Q: open} }, WithSeed(6))
	if err := n.LoadParts(hashParts(g, p)); err != nil {
		t.Fatal(err)
	}
	st, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := p * (p - 1); st.ControlSent != want {
		t.Errorf("ControlSent = %d, want %d", st.ControlSent, want)
	}
	if st.ControlSent >= st.Sent {
		t.Errorf("control traffic %d should be a strict minority of %d sent", st.ControlSent, st.Sent)
	}
	if r := st.CoordinationRatio(); r <= 0 || r >= 1 {
		t.Errorf("coordinated strategy ratio %v outside (0,1)", r)
	}

	// Pure data-shipping never pays coordination.
	tri := triangles(d)
	n2 := New(p, func() Program { return MonotoneBroadcast(tri) }, WithSeed(6))
	if err := n2.LoadParts(hashParts(g, p)); err != nil {
		t.Fatal(err)
	}
	st2, err := n2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st2.ControlSent != 0 || st2.CoordinationRatio() != 0 {
		t.Errorf("monotone broadcast paid coordination: %+v", st2)
	}
}

// CoordinationRatio is the fraction of sent messages that were
// control-plane traffic (0 for pure data-shipping strategies).
func (s Stats) CoordinationRatio() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.ControlSent) / float64(s.Sent)
}
