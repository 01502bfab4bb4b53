// Package sweep (fixture) exercises goroutine-hygiene's join rule:
// every goroutine needs join or cancellation evidence tied to that
// specific goroutine.
package sweep

import "sync"

// Leak spawns a worker and waits on an unrelated WaitGroup. A join
// somewhere in the function is not enough; the evidence must be tied
// to the goroutine itself: flagged.
func Leak(work []int, other *sync.WaitGroup) {
	go func() {
		for range work {
		}
	}()
	other.Wait()
}

// Named spawns a named function: the Done lives out of sight, so there
// is no visible evidence: flagged.
func Named() {
	var wg sync.WaitGroup
	wg.Add(1)
	go helper(&wg)
	wg.Wait()
}

func helper(wg *sync.WaitGroup) { wg.Done() }

// Joined pairs Add / deferred Done / Wait: clean.
func Joined(work []int) {
	var wg sync.WaitGroup
	for i := range work {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = work[i]
		}(i)
	}
	wg.Wait()
}

// Fed sends on a channel the spawner drains: clean.
func Fed(work []int) int {
	out := make(chan int)
	for range work {
		go func() {
			out <- 1
		}()
	}
	total := 0
	for range work {
		total += <-out
	}
	return total
}

// Pool workers range over a channel the spawner closes, with a
// WaitGroup join on top: clean on both counts.
func Pool(jobs []int) {
	feed := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range feed {
			}
		}()
	}
	for _, j := range jobs {
		feed <- j
	}
	close(feed)
	wg.Wait()
}
