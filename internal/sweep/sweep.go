// Package sweep is the repository's one fan-out. Each is its
// index-parallel loop: the MPC engine's route, compute and merge
// phases, the TCP transport's pullers and the daemon's snapshot save
// and load run on it, and so does Run, the experiment harness's
// parallel map. A loop on Each is byte-identical to the sequential one
// — the parallel-correctness property [Q,P](I) = Q(I) of Ameloot et
// al., applied to the repository's own code — on three legs:
//
//  1. Index-disjoint writes. Call i writes only slot i of state sized
//     beforehand, so the slots are a function of the indices, not of
//     which call ran when. mpclint's goroutine-hygiene holds a func
//     literal passed to Each to this: slice writes indexed by its own
//     parameter, or locked.
//  2. The lowest index's error. Each waits for every call and returns
//     the least failing index's error, the one a sequential loop that
//     stops at the first failure reports.
//  3. Deterministic failures. A panic is the call's to recover, so
//     every site keeps its own error text; Run's is an error carrying
//     only the panic value, no stack and no goroutine IDs.
//
// How many calls run at once is the caller's: a loop that may run one
// at a time runs inline, on the caller's goroutine, so a site that
// picks its workers from the size of its work (the MPC engine's phases
// do) pays for goroutines only where there is work to spread.
//
// The package is wall-clock free (mpclint's wallclock-free analyzer
// runs on it): timing is the caller's business.
package sweep

import (
	"fmt"
	"sync"
)

// Each runs f(0), …, f(n−1), started in index order and at most
// workers at once (workers ≤ 0 or ≥ n: all of them), waits for every
// call, and returns the lowest failing index's error.
//
// A loop that may run only one call at a time — workers == 1, or
// n ≤ 1 — is a plain loop on the caller's goroutine: f(0), …, f(n−1)
// in index order, no goroutine, channel or error slice, and a panic
// reaches the caller's own recover. A loop that runs all its calls at
// once starts one goroutine per index but the last, which runs on the
// caller, and needs no semaphore.
func Each(n, workers int, f func(i int) error) error {
	if workers == 1 || n <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := f(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	if workers <= 0 || workers >= n {
		wg.Add(n - 1)
		for i := 0; i < n-1; i++ {
			go func(i int) {
				defer wg.Done()
				errs[i] = f(i)
			}(i)
		}
		func() {
			defer wg.Wait() // a panic on the caller still waits for the others
			errs[n-1] = f(n - 1)
		}()
	} else {
		slots := make(chan struct{}, workers)
		for i := 0; i < n; i++ {
			slots <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = f(i)
				<-slots
			}(i)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

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

// Run executes jobs, at most max(workers, 1) at once, and returns one
// Result per job, in declared order: for every workers value the same
// results as the sequential Run(1, jobs). A job's failure stays in its
// own Result and cannot abort the sweep.
func Run[T any](workers int, jobs []Job[T]) []Result[T] {
	if len(jobs) == 0 {
		return nil
	}
	results := make([]Result[T], len(jobs))
	Each(len(jobs), max(workers, 1), func(i int) error { //lint:allow error-discard every call returns nil: a job's failure is its Result's
		results[i] = runJob(jobs[i], i)
		return nil
	})
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
