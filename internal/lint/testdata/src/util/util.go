// Package util is outside the engine list, and its wallclock-free hits
// are suppressed at the source. Only the interprocedural taint
// analysis can see the nondeterminism travel from here to an engine
// entry point in another package.
package util

import (
	"math/rand"
	"time"
)

// Jitter returns a value from the unseeded global source.
func Jitter(n int) int {
	return rand.Intn(n) //lint:allow wallclock-free fixture source, tracked by taint instead
}

// Stamp reads the wall clock. The suppression silences the local
// stopwatch complaint; nondet-taint still tracks the value to sinks.
func Stamp() int64 {
	return time.Now().UnixNano() //lint:allow wallclock-free fixture stopwatch, tracked by taint instead
}

// SetDeadline is a package-level FUNCTION that happens to share its
// name with the net deadline methods. The deadline allowance must not
// apply to calls of it — only method calls qualify.
func SetDeadline(t time.Time) error {
	_ = t
	return nil
}
