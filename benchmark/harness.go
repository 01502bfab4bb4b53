package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// clients is the closed loop's width: nproc is 2 where this benchmark
// runs, and the server shares the process, so two callers that each
// wait for their reply keep both cores busy without queueing.
const clients = 2

// setupRepeats is how many times an untraced run sets the workload up;
// setup_s is the median, so one slow page-in does not move it.
const setupRepeats = 3

// Host-speed calibration. The hosts this runs on are shared and change
// speed under the benchmark: for seconds to minutes at a time the whole
// machine runs 10–30 % slower, every workload with it, and which runs
// are hit is luck. So the clients interleave a small fixed computation —
// the kernel, plain Go that touches no code of the program under test —
// with their ops, and the timing metrics are reported at reference host
// speed: measured time × (reference kernel time ÷ the run's median
// kernel time). On a host where the kernel takes calibrationRef the
// numbers are the measured ones; on a slower or busier host they are
// what the measured ones would have been there. A regression in the
// program moves them as before; a slow neighbour mostly does not. Eight
// runs of one binary on one seed spread 12 % raw and 5 % calibrated, and
// the kernel's time correlates with the raw p50 at 0.93–0.95.
const (
	calibrationRef   = 500 * time.Microsecond // the kernel on the VM the first baseline was taken on
	calibrationEvery = 10 * time.Millisecond  // at most one kernel run per interval, all clients together: ≤ 2.5 % of two cores
	setupKernelRuns  = 15                     // kernel runs before and after each set-up, for its speed estimate
)

var kernelSink uint64 // keeps the kernel's result alive

// kernel is the fixed computation: hash-map updates, a little
// allocation and a sort — the mix the program under test lives on, in
// none of its code. It returns how long it took.
func kernel() time.Duration {
	start := time.Now()
	m := make(map[uint64]uint64, 1024)
	x := uint64(88172645463325252)
	for i := 0; i < 6000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x%2048] += x
	}
	keys := make([]uint64, 0, len(m))
	for k, v := range m {
		keys = append(keys, k^v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	kernelSink += keys[0]
	return time.Since(start)
}

// kernelBurst runs the kernel n times and returns the times, in ns.
func kernelBurst(n int) []float64 {
	runs := make([]float64, n)
	for i := range runs {
		runs[i] = float64(kernel())
	}
	return runs
}

// slowdown is how much slower than the reference the host ran while
// the given kernel runs were taken (1 = reference speed).
func slowdown(kernelNS []float64) float64 { return median(kernelNS) / float64(calibrationRef) }

// sample is one completed op: when it ended, relative to the start of
// the window, and how long it took.
type sample struct {
	end time.Duration
	lat time.Duration
}

// recorder collects the ops of a measured window. It is shared by the
// client goroutines; one uncontended lock per op is three orders of
// magnitude below the cheapest op measured here.
type recorder struct {
	mu        sync.Mutex
	t0        time.Time
	samples   []sample
	attempted int
	failed    int
	firstErr  error

	kernel  []float64 // ns per kernel run during the window
	lastCal time.Time
}

// open starts the window's clock.
func (r *recorder) open() { r.t0 = time.Now() }

// record books one op. A failed op counts against the run and
// contributes no latency.
func (r *recorder) record(start, end time.Time, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.samples = append(r.samples, sample{end: end.Sub(r.t0), lat: end.Sub(start)})
}

// calibrate runs the kernel if none has run for calibrationEvery.
// Every client calls it between ops; the interval is shared.
func (r *recorder) calibrate() {
	now := time.Now()
	r.mu.Lock()
	due := now.Sub(r.lastCal) >= calibrationEvery
	if due {
		r.lastCal = now
	}
	r.mu.Unlock()
	if !due {
		return
	}
	took := kernel()
	r.mu.Lock()
	r.kernel = append(r.kernel, float64(took))
	r.mu.Unlock()
}

// timed runs op and books it.
func (r *recorder) timed(op func() error) {
	start := time.Now()
	err := op()
	r.record(start, time.Now(), err)
	r.calibrate()
}

// closedLoop runs n client goroutines until the window closes: each
// prepares its next op outside the timed section, issues it, waits for
// the verified reply, and only then goes on.
func closedLoop(rec *recorder, n int, window time.Duration, next func(client, i int) func() error) {
	deadline := rec.t0.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				rec.timed(next(c, i))
			}
		}(c)
	}
	wg.Wait()
}

// throughputSlices is the number of equal parts of the window whose
// rates are medianed into throughput_ops_s.
const throughputSlices = 5

// endToEnd turns a window's samples into the latency and throughput
// metrics, at reference host speed. Only ops that completed inside the
// window count. Throughput is the median rate of equal-count slices of
// the completion sequence, so one host hiccup cannot move it; slicing by
// count rather than by time keeps a slice boundary from quantizing a
// workload that completes a dozen ops per slice. It returns the host's
// speed during the window, for the report.
func (r *recorder) endToEnd(window time.Duration, m metricSet) (float64, error) {
	var in []sample
	for _, s := range r.samples {
		if s.end <= window {
			in = append(in, s)
		}
	}
	if len(in) == 0 || len(r.kernel) == 0 {
		return 0, fmt.Errorf("%d ops and %d calibration runs completed inside the %v window", len(in), len(r.kernel), window)
	}
	slow := slowdown(r.kernel)
	sort.Slice(in, func(i, j int) bool { return in[i].end < in[j].end })
	lats := make([]float64, len(in))
	for i, s := range in {
		lats[i] = ms(s.lat) / slow
	}
	m.set("latency_p50_ms", quantile(lats, 0.5), len(lats))
	m.set("latency_p90_ms", quantile(lats, 0.9), len(lats))

	rates := make([]float64, min(throughputSlices, len(in)))
	prevEnd, prevIdx := time.Duration(0), 0
	for k := range rates {
		idx := len(in) * (k + 1) / len(rates)
		end := in[idx-1].end
		rates[k] = float64(idx-prevIdx) / (end - prevEnd).Seconds()
		prevEnd, prevIdx = end, idx
	}
	m.set("throughput_ops_s", median(rates)*slow, len(in))
	return slow, nil
}

// heapLiveMB is HeapAlloc after a forced collection. The caller keeps
// the workload's state reachable across the call.
func heapLiveMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// runtimeDelta reports allocation and GC activity between two
// MemStats snapshots, per op.
func runtimeDelta(before, after *runtime.MemStats, ops int, m metricSet) {
	m.set("runtime.alloc_kb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(max(ops, 1)), ops)
	m.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC), ops)
	m.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, ops)
}
