package sweep

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// render flattens results into one comparable string, the same shape
// the experiments harness ultimately prints.
func render[T any](rs []Result[T]) string {
	var b strings.Builder
	for i, r := range rs {
		fmt.Fprintf(&b, "[%d] %s", i, r.Name)
		if r.Err != nil {
			fmt.Fprintf(&b, " err=%v", r.Err)
		} else {
			fmt.Fprintf(&b, " value=%v", r.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestRunEmpty(t *testing.T) {
	if rs := Run[int](4, nil); rs != nil {
		t.Fatalf("empty sweep: got %v", rs)
	}
}

func TestResultsInDeclaredOrder(t *testing.T) {
	// Force completion order to be the reverse of declared order: each
	// job waits for all later jobs to have started and finished their
	// useful work. With enough workers this cannot deadlock, and the
	// merge must still come back 0..n-1.
	const n = 6
	var started [n]chan struct{}
	for i := range started {
		started[i] = make(chan struct{})
	}
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[int]{
			Name: fmt.Sprintf("j%d", i),
			Run: func() (int, error) {
				close(started[i])
				// Wait for every later job to have started, so earlier
				// jobs finish after later ones.
				for j := i + 1; j < n; j++ {
					<-started[j]
				}
				return i * i, nil
			},
		}
	}
	rs := Run(n, jobs)
	for i, r := range rs {
		if r.Name != fmt.Sprintf("j%d", i) || r.Value != i*i || r.Err != nil {
			t.Fatalf("slot %d holds %+v", i, r)
		}
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	mk := func() []Job[string] {
		var jobs []Job[string]
		for i := 0; i < 20; i++ {
			i := i
			jobs = append(jobs, Job[string]{
				Name: fmt.Sprintf("cell-%02d", i),
				Run: func() (string, error) {
					switch i % 4 {
					case 1:
						return "", fmt.Errorf("boom-%d", i)
					case 2:
						panic(fmt.Sprintf("kaboom-%d", i))
					}
					return fmt.Sprintf("v%d", i*7), nil
				},
			})
		}
		return jobs
	}
	want := render(Run(1, mk()))
	for _, workers := range []int{2, 3, 4, 8, 32} {
		if got := render(Run(workers, mk())); got != want {
			t.Fatalf("workers=%d diverged from sequential:\n--- sequential\n%s--- parallel\n%s", workers, want, got)
		}
	}
}

func TestPanicCapturedWithoutStack(t *testing.T) {
	jobs := []Job[int]{
		{Name: "boom", Run: func() (int, error) { panic("wired to fail") }},
		{Name: "fine", Run: func() (int, error) { return 42, nil }},
	}
	rs := Run(2, jobs)
	if rs[0].Err == nil || !strings.Contains(rs[0].Err.Error(), "wired to fail") {
		t.Fatalf("panic not captured: %+v", rs[0])
	}
	// Deterministic failure bytes: no goroutine IDs, no stack frames.
	if strings.Contains(rs[0].Err.Error(), "goroutine") || strings.Contains(rs[0].Err.Error(), ".go:") {
		t.Fatalf("panic error leaks nondeterministic context: %v", rs[0].Err)
	}
	if rs[1].Value != 42 || rs[1].Err != nil {
		t.Fatalf("sibling job damaged by panic: %+v", rs[1])
	}
}

func TestNilRunIsAnError(t *testing.T) {
	rs := Run(1, []Job[int]{{Name: "hollow"}})
	if rs[0].Err == nil || !strings.Contains(rs[0].Err.Error(), "no Run function") {
		t.Fatalf("nil Run not reported: %+v", rs[0])
	}
}

func TestWorkersClampedToOne(t *testing.T) {
	for _, w := range []int{0, -3} {
		rs := Run(w, []Job[int]{{Name: "a", Run: func() (int, error) { return 1, nil }}})
		if len(rs) != 1 || rs[0].Value != 1 {
			t.Fatalf("workers=%d: %v", w, rs)
		}
	}
}

func TestConcurrencyIsBounded(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	var mu sync.Mutex
	jobs := make([]Job[int], 24)
	for i := range jobs {
		jobs[i] = Job[int]{
			Name: fmt.Sprintf("j%d", i),
			Run: func() (int, error) {
				c := cur.Add(1)
				mu.Lock()
				if c > peak.Load() {
					peak.Store(c)
				}
				mu.Unlock()
				// Busy handoff: give other workers a chance to overlap.
				for k := 0; k < 1000; k++ {
					_ = k * k
				}
				cur.Add(-1)
				return 0, nil
			},
		}
	}
	Run(workers, jobs)
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs with %d workers", p, workers)
	}
}

// A sweep never starts more goroutines than it has jobs, however many
// workers it is offered.
func TestGoroutinesBoundedByJobs(t *testing.T) {
	var inside [2]atomic.Int64
	jobs := make([]Job[int], len(inside))
	for i := range jobs {
		jobs[i].Run = func() (int, error) {
			inside[i].Store(int64(runtime.NumGoroutine()))
			return 0, nil
		}
	}
	before := int64(runtime.NumGoroutine())
	Run(64, jobs)
	for i := range inside {
		if extra := inside[i].Load() - before; extra > int64(len(jobs)) {
			t.Fatalf("job %d saw %d extra goroutines for %d jobs", i, extra, len(jobs))
		}
	}
}
