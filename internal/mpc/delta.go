package mpc

import (
	"fmt"

	"mpclogic/internal/rel"
)

// Incremental view maintenance: a DeltaProgram is the semi-naive,
// update-driven form of a multi-round MPC program. Instead of a fixed
// round list that re-ships full relations, the program describes how
// one BATCH of added facts is absorbed (Inject) and how the recursive
// frontier is driven to a fixpoint (Step). The very first batch is the
// base instance itself, so "run from scratch" and "apply an update"
// are the same code path — which is what makes the byte-identity
// acceptance invariant (incremental output == from-scratch output on
// the final input) testable round-for-round.
//
// The Δ lattice is insertion-only: updates add facts, folds are
// monotone set unions, and fixpoints are reached when every frontier
// relation is empty cluster-wide. Deletions would need support
// counting and are out of scope.

// DeltaName returns the on-the-wire relation name of the Δ fragment of
// a relation: update batches are loaded under these names so Inject
// rounds can route only the new facts while the resident full copies
// stay put.
func DeltaName(name string) string { return "Δ" + name }

// DeltaProgram describes an incrementally maintainable view as pure
// data (closures over sizes and seeds only), so a program value can be
// re-instantiated against a restored checkpoint (RestoreDelta).
type DeltaProgram struct {
	// Name identifies the program in errors.
	Name string

	// Inject returns the rounds that absorb one update batch: they
	// route the Δ-named fragments (loaded by ApplyUpdate), fold them
	// into the resident relations, and derive the initial frontier.
	// batch is the zero-based update batch number (0 = the base load);
	// it must appear in the round names so histories stay resumable.
	Inject func(batch int) []Round

	// Step returns the k-th fixpoint round, k counting monotonically
	// across all batches (again: names must embed k). Nil for
	// non-recursive views.
	Step func(k int) Round

	// Frontier lists the relation names whose cluster-wide emptiness
	// is the fixpoint condition after an Inject; an empty list means
	// the view needs no Step loop.
	Frontier []string
}

// deltaState is a cluster's installed delta program plus the counters
// that make its round history reproducible: how many update batches
// were fully injected and how many fixpoint steps have run.
type deltaState struct {
	prog    DeltaProgram
	batches int
	steps   int
	broken  bool // a round failed mid-batch; see ApplyUpdate
}

// RunDelta installs prog on a fresh cluster and computes the view from
// scratch by applying the base instance as update batch 0. Further
// calls to ApplyUpdate maintain the view incrementally.
func (c *Cluster) RunDelta(prog DeltaProgram, base *rel.Instance) error {
	if c.delta != nil {
		return fmt.Errorf("mpc: cluster already maintains delta program %q", c.delta.prog.Name)
	}
	if len(c.stats) != 0 {
		return fmt.Errorf("mpc: delta program %q must start on a cluster with no executed rounds (have %d)",
			prog.Name, len(c.stats))
	}
	if prog.Inject == nil {
		return fmt.Errorf("mpc: delta program %q has no Inject", prog.Name)
	}
	c.delta = &deltaState{prog: prog}
	return c.ApplyUpdate(base)
}

// ApplyUpdate incrementally folds a batch of added facts into the
// maintained view: the adds are spread round-robin under their Δ names
// (mirroring LoadRoundRobin; placement is not communication), the
// program's Inject rounds ship and fold exactly those fragments, and
// Step rounds run until the frontier is empty cluster-wide. Cost
// therefore scales with the size of the update's consequences, not
// with the resident state.
//
// ApplyUpdate is not atomic: a failing round (e.g. an exhausted fault
// retry budget) leaves the cluster mid-batch, marks maintenance
// broken, and further updates are refused. Recovery is RestoreDelta
// from the last checkpoint — with checkpoints enabled the rolling
// post-round snapshot is always at a consistent boundary.
func (c *Cluster) ApplyUpdate(adds *rel.Instance) error {
	ds := c.delta
	if ds == nil {
		return fmt.Errorf("mpc: ApplyUpdate on a cluster with no delta program (see RunDelta)")
	}
	if ds.broken {
		return fmt.Errorf("mpc: delta program %q is mid-batch after a failed round; restore from a checkpoint (RestoreDelta)", ds.prog.Name)
	}
	c.loadDelta(adds)
	for _, r := range ds.prog.Inject(ds.batches) {
		if _, err := c.RunRound(r); err != nil {
			ds.broken = true
			return err
		}
	}
	ds.batches++
	return c.fixpoint()
}

// loadDelta deals adds round-robin across servers under Δ names: a
// view binds each relation under its Δ name without copying it, and Δ
// names sort like their bases, so DealRoundRobin deals the view in the
// order it would deal adds.
func (c *Cluster) loadDelta(adds *rel.Instance) {
	if adds == nil {
		return
	}
	view := rel.NewInstance()
	for _, name := range adds.RelationNames() {
		view.SetRelationAs(DeltaName(name), adds.Relation(name))
	}
	DealRoundRobin(view, c.servers, 0)
}

// frontierEmpty reports whether every frontier relation is empty on
// every server — the fixpoint condition.
func (c *Cluster) frontierEmpty(frontier []string) bool {
	for _, name := range frontier {
		for _, srv := range c.servers {
			if r := srv.Relation(name); r != nil && r.Len() > 0 {
				return false
			}
		}
	}
	return true
}

// fixpoint drives Step rounds until the frontier drains.
func (c *Cluster) fixpoint() error {
	ds := c.delta
	for !c.frontierEmpty(ds.prog.Frontier) {
		if ds.prog.Step == nil {
			ds.broken = true
			return fmt.Errorf("mpc: delta program %q has a nonempty frontier but no Step", ds.prog.Name)
		}
		if _, err := c.RunRound(ds.prog.Step(ds.steps)); err != nil {
			ds.broken = true
			return err
		}
		ds.steps++
	}
	return nil
}

// expectedDeltaRounds recomputes how many rounds a history with the
// given counters must contain: every fully-injected batch's Inject
// rounds plus the executed fixpoint steps.
func expectedDeltaRounds(prog DeltaProgram, batches, steps int) int {
	n := steps
	for b := 0; b < batches; b++ {
		n += len(prog.Inject(b))
	}
	return n
}

// RestoreDelta re-enters a delta program from a checkpoint: the
// cluster state and stats history come from Restore, the batch/step
// counters were recorded when the checkpoint was cut, and prog must be
// the same program value the history was produced by (programs are
// pure data, so re-instantiating with the same parameters suffices).
// An interrupted fixpoint is finished before RestoreDelta returns, so
// the result is always at a batch boundary, ready for ApplyUpdate.
//
// A checkpoint cut mid-injection of a multi-round Inject cannot be
// re-entered (the Δ placement between its rounds is not recorded);
// this is detected by round counting and reported as an error.
func RestoreDelta(ck *Checkpoint, prog DeltaProgram, opts ...Option) (*Cluster, error) {
	if want, have := expectedDeltaRounds(prog, ck.batches, ck.steps), ck.Rounds(); want != have {
		return nil, fmt.Errorf(
			"mpc: checkpoint of delta program %q holds %d rounds mid-injection (batch boundary needs %d); re-apply the batch from the previous checkpoint",
			prog.Name, have, want)
	}
	c := Restore(ck, opts...)
	c.delta = &deltaState{prog: prog, batches: ck.batches, steps: ck.steps}
	if err := c.fixpoint(); err != nil {
		return c, err
	}
	return c, nil
}
