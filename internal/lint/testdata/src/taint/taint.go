// Package transducer (fixture) exercises the nondet-taint analyzer:
// the package name is on the engine list, so exported returns, stats
// fields, store writes, and fmt output are determinism-critical sinks.
// The sources live in helpers.go and util — every finding here crosses
// at least one call boundary, most cross two.
package transducer

import (
	"fmt"
	"sync"

	"fixture/util"
)

// Banner leaks map iteration order through two call boundaries in
// another file (describe → label): flagged at this return.
func Banner(m map[string]int) string {
	return label(m)
}

// Show passes the same two-boundary taint to a fmt sink: flagged.
func Show(m map[string]int) {
	fmt.Println(label(m))
}

// ShowSorted prints the sorted enumeration: the sort.Strings inside
// sortedKeys launders the order taint, so this is clean.
func ShowSorted(m map[string]int) {
	fmt.Println(sortedKeys(m))
}

// CleanKeys launders through an in-module helper: sortInPlace's
// summary marks its parameter sanitized, so the return is clean.
func CleanKeys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sortInPlace(ks)
	return ks
}

// Perturb returns unseeded randomness obtained through another
// package — only taint sees it, util suppresses the read: flagged.
func Perturb(n int) int {
	return util.Jitter(n)
}

// Mark returns a wall-clock read obtained through another package:
// flagged, and no sort can launder value taint.
func Mark() int64 {
	return util.Stamp()
}

// FirstReady returns whichever channel wins the race: select-winner
// taint returned from an engine entry point, flagged.
func FirstReady(a, b <-chan int) int {
	var v int
	select {
	case v = <-a:
	case v = <-b:
	}
	return v
}

// Gather concatenates from goroutines in completion order: flagged.
func Gather(parts []string) string {
	var wg sync.WaitGroup
	out := ""
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out += parts[i]
		}(i)
	}
	wg.Wait()
	return out
}

// RoundStats mirrors the engine's cost-accounting struct by name.
type RoundStats struct {
	Received int
}

// record stores a map-order-dependent value in a stats field: flagged
// at the field write even though the function is unexported.
func record(m map[string]int) RoundStats {
	var st RoundStats
	st.Received = firstVal(m)
	return st
}

// StableStore mirrors the persistence layer's store by name.
type StableStore struct {
	rows []string
}

// NewStableStore is a sink by name: its argument must be deterministic.
func NewStableStore(rows []string) *StableStore {
	return &StableStore{rows: rows}
}

// checkpoint hands an order-dependent blob to the durable store:
// flagged at the call.
func checkpoint(m map[string]int) *StableStore {
	blob := ""
	for k := range m {
		blob += k
	}
	return NewStableStore([]string{blob})
}

var _ = record
var _ = checkpoint
