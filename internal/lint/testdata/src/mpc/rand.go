// Package mpc exercises wallclock-free's global-random-source and clock
// rules (library code may not use either); the engine package name also
// makes the returned values nondet-taint sinks.
package mpc

import (
	"math/rand"
	"time"
)

// Shuffle uses the global source: flagged.
func Shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// Pick uses the global source: flagged.
func Pick(xs []int) int {
	return xs[rand.Intn(len(xs))]
}

// Stamp reads the wall clock: flagged.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Seeded threads an explicit generator: clean.
func Seeded(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}

// Since takes time as an input: clean.
func Since(t0, t1 time.Time) time.Duration {
	return t1.Sub(t0)
}

// sock mimics the net package's deadline surface.
type sock struct{}

func (sock) SetDeadline(t time.Time) error { return nil }

// ArmDeadline reads the clock only to arm a socket deadline: clean
// under wallclock-free — the deadline bounds when a broken exchange
// fails, never what the engine computes.
func ArmDeadline(c sock, d time.Duration) error {
	return c.SetDeadline(time.Now().Add(d))
}
