package transducer

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// This file turns the paper's "on every schedule" quantifier into a
// machine-checked one: Theorems 5.3/5.8/5.12 claim their strategies
// compute the query under *arbitrary* message delay, and a handful of
// random seeds only samples that claim. Explore enumerates every
// delivery order of a small network exhaustively, with two sound
// reductions keeping the schedule tree tractable:
//
//   - Memoized state hashing: two schedules reaching the same global
//     state (node states + outputs + volatile program fingerprints +
//     in-flight message multiset) have identical futures, so the
//     subtree is explored once.
//
//   - Sleep sets over the commutation relation "deliveries to
//     distinct nodes are independent": a transition depends only on
//     the destination's local state and appends to buffers, so
//     delivering to node A then B reaches the same state as B then A.
//     Exploring one interleaving per Mazurkiewicz trace preserves all
//     reachable quiescent states (Godefroid); combining sleep sets
//     with memoization stays sound because a memo entry only prunes
//     when some recorded sleep set is a subset of the current one
//     (the earlier visit explored a superset of our transitions).
//
// Verifying outputs at quiescent states only is sufficient: outputs
// are write-only, so any unsound intermediate emission persists to
// (and is caught at) every quiescent state below it.

// Forkable is implemented by programs the explorer can run: Snapshot
// deep-copies the program's volatile state, and Fingerprint renders
// that state canonically (deterministically — sorted enumeration) so
// two nodes with equal relational state but different protocol
// progress hash differently.
type Forkable interface {
	Program
	Snapshot() Program
	Fingerprint() string
}

// ExploreResult summarizes an exhaustive schedule exploration.
type ExploreResult struct {
	States      int      // distinct global states visited
	Transitions int      // deliveries executed (after reduction)
	Quiescent   int      // quiescent states reached
	MemoHits    int      // subtrees cut by the state memo
	SleepPrunes int      // transitions cut by sleep sets
	Outputs     []string // distinct global outputs over all quiescent states, sorted
}

// Deterministic reports whether every schedule produced the same
// global output.
func (r ExploreResult) Deterministic() bool { return len(r.Outputs) <= 1 }

// Explore runs every message schedule of n from its initial state:
// all nodes take Start in identity order (sound: Start reads only
// local state, so the post-start global state is permutation-
// independent), then all delivery orders are enumerated. Every
// program must implement Forkable; fault injectors are not supported
// (the explorer owns the schedule). maxStates bounds the distinct
// states visited; exceeding it returns an error identifying how far
// the exploration got.
func Explore(n *Network, maxStates int) (ExploreResult, error) {
	for i, pr := range n.programs {
		if _, ok := pr.(Forkable); !ok {
			return ExploreResult{}, fmt.Errorf("transducer: program of node %d (%T) does not implement Forkable", i, pr)
		}
	}
	if n.faults != nil {
		return ExploreResult{}, fmt.Errorf("transducer: Explore owns the schedule; fault injectors are not supported")
	}
	for i := 0; i < n.p; i++ {
		n.stats.Steps++
		n.programs[i].Start(n.ctxs[i])
	}
	e := &explorer{
		limit:   maxStates,
		memo:    map[[32]byte][][]string{},
		outputs: map[string]bool{},
	}
	nodes := make([]string, n.p)
	for i := range nodes {
		nodes[i] = renderNode(n, i)
	}
	err := e.dfs(n, nodes, map[string]int{})
	res := ExploreResult{
		States:      len(e.memo),
		Transitions: e.transitions,
		Quiescent:   e.quiescent,
		MemoHits:    e.memoHits,
		SleepPrunes: e.sleepPrunes,
	}
	for out := range e.outputs {
		res.Outputs = append(res.Outputs, out)
	}
	sort.Strings(res.Outputs)
	return res, err
}

type explorer struct {
	limit       int
	memo        map[[32]byte][][]string // state digest → sleep sets already explored (sorted ids)
	outputs     map[string]bool
	transitions int
	quiescent   int
	memoHits    int
	sleepPrunes int
}

// delivery is one enabled transition, identified by (to, from, fact):
// pending duplicates of the same message reach the same successor, so
// one representative suffices.
type delivery struct {
	to, from int
	factPos  int // index within buffers[to]
	id       string
}

func deliveryID(to, from int, factKey string) string {
	return fmt.Sprintf("%d|%d|%s", to, from, factKey)
}

// enabledDeliveries lists the distinct enabled transitions in a
// deterministic order (buffer scan order).
func enabledDeliveries(n *Network) []delivery {
	var out []delivery
	seen := map[string]bool{}
	for to, buf := range n.buffers {
		for pos, m := range buf {
			id := deliveryID(to, int(m.From), m.Fact.Key())
			if seen[id] {
				continue
			}
			seen[id] = true
			out = append(out, delivery{to: to, from: int(m.From), factPos: pos, id: id})
		}
	}
	return out
}

// renderNode canonically renders one node: relational state, output,
// and the program's volatile fingerprint. The explorer caches these
// per branch — a delivery changes exactly one node's rendering.
func renderNode(n *Network, i int) string {
	return n.ctxs[i].state.String() + "#" + n.outputs[i].String() + "#" + n.programs[i].(Forkable).Fingerprint()
}

// exploreKey digests the canonical rendering of the global state
// (cached node renderings plus the in-flight message multiset). Stats
// are excluded: they do not influence future behavior, and excluding
// them merges schedules that differ only in bookkeeping. The 256-bit
// digest keeps the memo's memory proportional to the state count, not
// the state size.
func exploreKey(n *Network, nodes []string) [32]byte {
	var b strings.Builder
	for _, s := range nodes {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	ms := make([]string, 0, 8)
	for to, buf := range n.buffers {
		for _, m := range buf {
			ms = append(ms, deliveryID(to, int(m.From), m.Fact.Key()))
		}
	}
	sort.Strings(ms)
	for _, s := range ms {
		b.WriteString(s)
		b.WriteByte(';')
	}
	return sha256.Sum256([]byte(b.String()))
}

// subset reports whether every id in recorded is in current.
func subset(recorded []string, current map[string]int) bool {
	for _, id := range recorded {
		if _, ok := current[id]; !ok {
			return false
		}
	}
	return true
}

func sortedIDs(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// dfs explores all schedules from n's current state. nodes caches the
// canonical per-node renderings; sleep maps a transition id to its
// destination node for transitions whose subtrees a sibling already
// covered.
func (e *explorer) dfs(n *Network, nodes []string, sleep map[string]int) error {
	key := exploreKey(n, nodes)
	if recorded, ok := e.memo[key]; ok {
		for _, s := range recorded {
			if subset(s, sleep) {
				e.memoHits++
				return nil
			}
		}
	} else if len(e.memo) >= e.limit {
		return fmt.Errorf("transducer: exploration exceeded %d states (%d transitions so far)", e.limit, e.transitions)
	}
	e.memo[key] = append(e.memo[key], sortedIDs(sleep))

	enabled := enabledDeliveries(n)
	if len(enabled) == 0 {
		e.quiescent++
		e.outputs[n.Output().String()] = true
		return nil
	}
	var done []delivery
	for _, t := range enabled {
		if _, asleep := sleep[t.id]; asleep {
			e.sleepPrunes++
			continue
		}
		child := n.forkFor(t.to)
		child.deliverAt(t.to, t.factPos)
		childNodes := append([]string(nil), nodes...)
		childNodes[t.to] = renderNode(child, t.to)
		childSleep := map[string]int{}
		for id, to := range sleep {
			if to != t.to {
				childSleep[id] = to
			}
		}
		for _, d := range done {
			if d.to != t.to {
				childSleep[d.id] = d.to
			}
		}
		e.transitions++
		if err := e.dfs(child, childNodes, childSleep); err != nil {
			return err
		}
		done = append(done, t)
	}
	return nil
}

// forkFor copies the network for one exploration branch in which node
// `to` takes the next transition: only that node's program, state,
// and output are deep-copied — every other node's are shared with the
// parent, which is safe because a node's data is only ever mutated by
// its own transitions, and any branch delivering to another node
// forks that node first. Buffers are always copied (sends from node
// `to` append to them); Message facts are cloned on enqueue and never
// mutated afterwards, so the copies share them.
func (n *Network) forkFor(to int) *Network {
	cp := *n
	cp.programs, cp.outputs = slices.Clone(n.programs), slices.Clone(n.outputs)
	cp.ctxs, cp.buffers = make([]*Context, n.p), make([][]Message, n.p)
	for i, c := range n.ctxs {
		ctx := *c
		ctx.net = &cp
		cp.ctxs[i] = &ctx
		cp.buffers[i] = slices.Clone(n.buffers[i])
	}
	cp.programs[to] = n.programs[to].(Forkable).Snapshot()
	cp.outputs[to] = n.outputs[to].Clone()
	cp.ctxs[to].state = n.ctxs[to].state.Clone()
	return &cp
}

// deliverAt delivers the message at position pos of node to's buffer
// (shift-removal keeps the scan order stable for determinism).
func (n *Network) deliverAt(to, pos int) {
	m := n.buffers[to][pos]
	n.buffers[to] = append(n.buffers[to][:pos:pos], n.buffers[to][pos+1:]...)
	n.stats.Delivered++
	n.stats.Steps++
	n.programs[to].OnMessage(n.ctxs[to], m.From, m.Fact)
}
