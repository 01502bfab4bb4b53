// Package sweep is a parallel map: it runs independent jobs on a
// bounded worker pool and returns their results in declared order, so
// a parallel sweep is byte-identical to the sequential one, the
// parallel-correctness property [Q,P](I) = Q(I) of Ameloot et al.
// applied to this repository's own experiment harness. Two legs:
//
//  1. Placement, not arrival, orders results. Workers only send
//     (index, result) pairs over a channel; the calling goroutine
//     alone writes them into the results by index.
//  2. Jobs are deterministic, failures included: a panic becomes an
//     error carrying only the panic value (no stack, no goroutine
//     IDs), so a failing job renders the same bytes at every worker
//     count.
//
// The package is wall-clock free (mpclint's wallclock-free analyzer
// runs on it): timing is the caller's business and stays out of the
// values jobs return.
package sweep

import (
	"fmt"
	"sync"
)

// Job is one unit of a sweep: a named closure.
type Job[T any] struct {
	// Name labels the job's result; empty means "job-<index>".
	Name string
	// Run produces the job's value. A panic becomes the job's error.
	Run func() (T, error)
}

// Result is one job's outcome. Value is the zero value whenever Err
// is non-nil.
type Result[T any] struct {
	Name  string
	Value T
	Err   error
}

// Run executes jobs on min(max(workers, 1), len(jobs)) goroutines and
// returns one Result per job, in declared order: for every workers
// value the same results as the sequential Run(1, jobs). A job's
// failure stays in its own Result and cannot abort the sweep.
func Run[T any](workers int, jobs []Job[T]) []Result[T] {
	if len(jobs) == 0 {
		return nil
	}
	type placed struct {
		idx int
		res Result[T]
	}
	// Both channels hold every job, so no send ever blocks.
	next := make(chan int, len(jobs))
	for i := range jobs {
		next <- i
	}
	close(next)
	done := make(chan placed, len(jobs))
	var wg sync.WaitGroup
	for w := min(max(workers, 1), len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				done <- placed{idx: i, res: runJob(jobs[i], i)}
			}
		}()
	}
	results := make([]Result[T], len(jobs))
	for range jobs {
		p := <-done
		results[p.idx] = p.res
	}
	wg.Wait()
	return results
}

// runJob runs one job. A captured panic carries only the panic value,
// never a stack trace, so failure bytes are identical run to run.
func runJob[T any](j Job[T], idx int) (r Result[T]) {
	r.Name = j.Name
	if r.Name == "" {
		r.Name = fmt.Sprintf("job-%d", idx)
	}
	defer func() {
		if rec := recover(); rec != nil {
			r.Err = fmt.Errorf("sweep: job panicked: %v", rec)
		}
		if r.Err != nil {
			r.Value = *new(T)
		}
	}()
	if j.Run == nil {
		r.Err = fmt.Errorf("sweep: job has no Run function")
		return r
	}
	r.Value, r.Err = j.Run()
	return r
}
