// Package goroutine exercises the goroutine-hygiene analyzer.
package goroutine

import (
	"sync"

	"fixture/sweep"
)

// NoJoin forks without any join: flagged.
func NoJoin(n int) {
	for i := 0; i < n; i++ {
		go func(i int) {
			use(i)
		}(i)
	}
}

// Joined is the sanctioned fan-out: WaitGroup join, loop variable
// passed as a parameter, writes disjoint by that parameter. Clean.
func Joined(n int) []int {
	out := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = i * i
		}(i)
	}
	wg.Wait()
	return out
}

// SharedMap writes a map from concurrent workers: flagged.
func SharedMap(keys []string) map[string]bool {
	m := make(map[string]bool)
	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			m[k] = true
		}(k)
	}
	wg.Wait()
	return m
}

// SharedSlot aims every worker at index 0: flagged.
func SharedSlot(n int) []int {
	out := make([]int, 1)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[0] += i
		}(i)
	}
	wg.Wait()
	return out
}

// LockedSlot serializes the shared write with a mutex: clean.
func LockedSlot(n int) []int {
	out := make([]int, 1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			out[0] += i
		}(i)
	}
	wg.Wait()
	return out
}

// ChanJoin joins through a channel receive: clean.
func ChanJoin() int {
	ch := make(chan int)
	go func() {
		ch <- 42
	}()
	return <-ch
}

// EachShared aims every sweep.Each call at index 0: flagged, as the
// same write in a go closure is.
func EachShared(n int) []int {
	shared := make([]int, 1)
	if err := sweep.Each(n, 0, func(i int) error {
		shared[0] += i
		return nil
	}); err != nil {
		return nil
	}
	return shared
}

// EachDisjoint writes the slot of the call's own index: clean.
func EachDisjoint(n int) []int {
	out := make([]int, n)
	if err := sweep.Each(n, 2, func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		return nil
	}
	return out
}

func use(int) {}
