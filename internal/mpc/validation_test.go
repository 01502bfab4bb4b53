package mpc

import (
	"strings"
	"testing"

	"mpclogic/internal/rel"
)

// Input-validation coverage: bad cluster parameters must fail with
// deterministic panics or errors, never silent corruption.

func wantPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		rec := recover()
		if rec == nil {
			t.Errorf("no panic, want panic containing %q", substr)
			return
		}
		msg, ok := rec.(string)
		if !ok {
			t.Errorf("panic value %v (%T), want string", rec, rec)
			return
		}
		if !strings.Contains(msg, substr) {
			t.Errorf("panic %q, want substring %q", msg, substr)
		}
	}()
	fn()
}

func TestNewClusterPanicsOnNegative(t *testing.T) {
	wantPanic(t, "needs at least one server", func() { NewCluster(-3) })
}

func TestLoadAtOutOfRangePanics(t *testing.T) {
	d := rel.NewDict()
	c := NewCluster(2)
	inst := rel.MustInstance(d, "R(a,b)")
	wantPanic(t, "LoadAt(2) on a 2-server cluster", func() { c.LoadAt(2, inst) })
	wantPanic(t, "LoadAt(-1) on a 2-server cluster", func() { c.LoadAt(-1, inst) })
	// The failed loads must not have placed anything.
	if c.Server(0).Len() != 0 || c.Server(1).Len() != 0 {
		t.Errorf("out-of-range LoadAt corrupted a server")
	}
}

func TestServerOutOfRangePanics(t *testing.T) {
	c := NewCluster(2)
	wantPanic(t, "Server(5) on a 2-server cluster", func() { c.Server(5) })
}

func TestBroadcastInvalidP(t *testing.T) {
	wantPanic(t, "Broadcast needs at least one server", func() { Broadcast(0) })
}

func TestHashOnInvalidP(t *testing.T) {
	wantPanic(t, "HashOn needs at least one server", func() { HashOn(-1, []int{0}, 0) })
}

// A relation's route inside ByRelation must know its width — be a
// policy, as every constructor here returns; a bare closure routes a
// whole round, not one relation of it.
func TestByRelationRefusesWidthlessRoute(t *testing.T) {
	wantPanic(t, "ByRelation route for R is a mpc.RouterFunc", func() {
		ByRelation(map[string]Router{"R": RouterFunc(func(rel.Fact) []int { return nil })})
	})
}

// A router built for a LARGER cluster than the one executing the
// round must surface as RunRound's deterministic out-of-range routing
// error, not write past the server slice.
func TestMismatchedRouterSurfacesAsRouteError(t *testing.T) {
	d := rel.NewDict()
	for name, router := range map[string]Router{
		"broadcast": Broadcast(5),
		// Force the big-cluster hash onto a destination the small
		// cluster lacks.
		"hash": RouterFunc(func(f rel.Fact) []int { return []int{4} }),
	} {
		t.Run(name, func(t *testing.T) {
			c := NewCluster(3)
			c.LoadAt(0, rel.MustInstance(d, "R(a,b)"))
			_, err := c.RunRound(Round{Name: "mismatch", Route: router})
			if err == nil || !strings.Contains(err.Error(), "outside [0,3)") {
				t.Fatalf("err = %v, want out-of-range routing error", err)
			}
			if c.Rounds() != 0 || c.Server(0).Len() != 1 {
				t.Errorf("failed round mutated cluster state")
			}
		})
	}
}

func TestNegativeOptionArgumentsPanic(t *testing.T) {
	wantPanic(t, "negative retry budget", func() { WithRetryBudget(-1) })
	wantPanic(t, "negative speculation threshold", func() { WithSpeculation(-2) })
	wantPanic(t, "negative replication factor", func() { WithReplication(-1) })
}
