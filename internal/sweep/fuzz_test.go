package sweep

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzSweepMerge throws random job lists — with erroring and panicking
// jobs among the ok ones — at the pool and checks the contract the
// experiment harness rests on:
//
//  1. the merged results are byte-identical between the sequential
//     run and a parallel run,
//  2. every job gets exactly one result, in declared order,
//  3. errors land exactly where the spec puts them, with the value
//     zeroed, and a panic's error carries no stack trace.
//
// Each byte of spec defines one job; its value modulo 3 picks the kind
// (ok, error, panic).
func FuzzSweepMerge(f *testing.F) {
	f.Add(uint8(2), []byte{})
	f.Add(uint8(3), []byte{0, 1, 2, 3})
	f.Add(uint8(8), []byte{0x00, 0x11, 0x42, 0x23, 0xf1, 0x07, 0x33, 0x9a})
	f.Add(uint8(1), []byte{1, 1, 1, 1, 1, 1})
	f.Add(uint8(4), []byte{2, 0x12, 0x22, 0x32, 0x42})

	f.Fuzz(func(t *testing.T, workersByte uint8, spec []byte) {
		if len(spec) > 48 {
			spec = spec[:48]
		}
		workers := 2 + int(workersByte)%7
		jobs := makeJobs(spec)

		seq := Run(1, jobs)
		if par := Run(workers, jobs); render(par) != render(seq) {
			t.Fatalf("workers=%d diverged from sequential:\n%s\nvs\n%s", workers, render(par), render(seq))
		}
		if len(seq) != len(spec) {
			t.Fatalf("%d jobs produced %d results", len(spec), len(seq))
		}
		for i, b := range spec {
			r := seq[i]
			if r.Name != fmt.Sprintf("job-%d", i) {
				t.Errorf("result %d holds job %q: merge order broken", i, r.Name)
			}
			switch b % 3 {
			case 1:
				if r.Err == nil || r.Err.Error() != fmt.Sprintf("boom-%d", i) || r.Value != "" {
					t.Errorf("error job %d: %+v", i, r)
				}
			case 2:
				if r.Err == nil || !strings.Contains(r.Err.Error(), fmt.Sprintf("panicked: kaboom-%d", i)) || r.Value != "" {
					t.Errorf("panic job %d: %+v", i, r)
				} else if msg := r.Err.Error(); strings.Contains(msg, "goroutine") || strings.Contains(msg, ".go:") {
					t.Errorf("panic job %d leaks a stack: %v", i, r.Err)
				}
			default:
				if r.Err != nil || r.Value != fmt.Sprintf("ok-%d", i) {
					t.Errorf("ok job %d: %+v", i, r)
				}
			}
		}
	})
}

// makeJobs decodes a spec into jobs. Every job is a pure function of
// its byte and index, so one decode serves every run.
func makeJobs(spec []byte) []Job[string] {
	jobs := make([]Job[string], len(spec))
	for i, b := range spec {
		jobs[i].Name = fmt.Sprintf("job-%d", i)
		switch b % 3 {
		case 1:
			jobs[i].Run = func() (string, error) { return fmt.Sprintf("partial-%d", i), fmt.Errorf("boom-%d", i) }
		case 2:
			jobs[i].Run = func() (string, error) { panic(fmt.Sprintf("kaboom-%d", i)) }
		default:
			jobs[i].Run = func() (string, error) { return fmt.Sprintf("ok-%d", i), nil }
		}
	}
	return jobs
}
