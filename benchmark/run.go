package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mpclogic/internal/mpc"
	"mpclogic/internal/mpcd"
	"mpclogic/internal/mpcnet"
)

// workloads lists every workload in the order run.sh runs them.
var workloads = []string{
	workloadReuse, workloadRepartition, workloadMixed, workloadRestart, workloadBulk, workloadRounds,
}

// processStart is when the process began, as near as a Go program can
// tell: the first set-up is timed from here, and spans count from here.
var processStart = time.Now()

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	out      string // where trace files go
	scratch  string // snapshots and checkpoints; removed at exit
	prefix   int    // traced ops; 0 picks the workload's own length
	setups   int    // set-ups per untraced run; 0 means setupRepeats

	// mangle, set only by tests, corrupts replies before they are
	// checked, to prove that a wrong answer is counted as failed.
	mangle func([]byte) []byte
}

// result is one run's outcome.
type result struct {
	attempted int
	failed    int
	firstErr  error
	metrics   metricSet

	// A traced run's p50 of the same ops without and with spans.
	untracedP50, tracedP50 float64

	// An untraced run's host speed during the window: measured time ÷
	// reported time.
	hostSlowdown float64
}

// world is a workload, set up and ready.
type world interface {
	measure(rec *recorder, window time.Duration)
	close()
}

// apiWorld is a workload that speaks mpcd's API, as the traced run
// drives it.
type apiWorld interface {
	world
	// loopbackServer is the server behind the loopback listener.
	loopbackServer() *mpcd.Server
	// pass runs the next n ops of the fixed prefix with one client.
	pass(be *backend, n int) passResult
	// betweenPasses undoes what pass 1 leaves behind that pass 2
	// would trip over.
	betweenPasses() error
	// residentFacts counts the facts the sessions hold after a pass.
	residentFacts() int
	// control asks the loopback server for a request and its reply,
	// which a restored twin must reproduce byte for byte.
	control() (request, want []byte, err error)
}

// tracedPrefix is how many ops a traced pass replays, by default.
func tracedPrefix(workload string) int {
	switch workload {
	case workloadBulk, workloadRounds, workloadRepartition:
		return 16 // whole distributed runs; an op of two repartitions, each request run three ways
	case workloadRestart:
		return 32
	}
	return 64
}

func build(run *runConfig, be *backend) (world, error) {
	switch run.workload {
	case workloadReuse, workloadRepartition, workloadRestart:
		return buildServe(run, run.workload, be)
	case workloadMixed:
		epoch := mixedEpoch
		if be != nil {
			epoch = mixedPrefix
		}
		return buildMixed(run, epoch, be)
	case workloadBulk, workloadRounds:
		return buildEngine(run, run.workload)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", run.workload, workloads)
}

// runUntraced measures the end-to-end metrics: set-up (several times,
// median), one closed-loop window with tracing off, live heap.
func runUntraced(run *runConfig) (*result, error) {
	var w world
	var setups []float64
	repeats := run.setups
	if repeats <= 0 {
		repeats = setupRepeats
	}
	before := kernelBurst(setupKernelRuns)
	for k := 0; k < repeats; k++ {
		start := time.Now()
		if w != nil {
			w.close()
		} else {
			start = processStart // the first set-up starts with the process
		}
		var err error
		if w, err = build(run, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start).Seconds()
		// The host's speed during a set-up is estimated from the
		// kernel runs on either side of it.
		after := kernelBurst(setupKernelRuns)
		setups = append(setups, took/slowdown(append(before, after...)))
		before = after
	}
	defer w.close()
	runtime.GC() // the discarded set-ups' garbage is not the window's

	rec := &recorder{}
	rec.open()
	w.measure(rec, run.window)

	m := metricSet{}
	m.set("setup_s", median(setups), len(setups))
	slow, err := rec.endToEnd(run.window, m)
	if err != nil {
		if rec.firstErr != nil {
			err = fmt.Errorf("%w; first failure: %v", err, rec.firstErr)
		}
		return nil, err
	}
	m.set("heap_live_mb", heapLiveMB(), 1)
	runtime.KeepAlive(w)
	return &result{attempted: rec.attempted, failed: rec.failed, firstErr: rec.firstErr, metrics: m, hostSlowdown: slow}, nil
}

// traced measures the per-layer metrics; the spans it returns are what
// the profile is written from.
func traced(run *runConfig) (*result, *tracer, error) {
	n := run.prefix
	if n <= 0 {
		n = tracedPrefix(run.workload)
	}
	tr := newTracer()
	m := metricSet{}
	var res *result
	var err error
	if run.workload == workloadBulk || run.workload == workloadRounds {
		res, err = tracedEngine(run, tr, n, m)
	} else {
		res, err = tracedAPI(run, tr, n, m)
	}
	if err != nil {
		return nil, nil, err
	}
	layerMetrics(tr, m)
	if err := tr.write(filepath.Join(run.out, run.workload+".trace.json")); err != nil {
		return nil, nil, err
	}
	res.metrics = m
	return res, tr, nil
}

// tracedAPI is the traced run of the workloads that speak mpcd's API.
//
// Pass 1 replays the op prefix untraced against the loopback server
// alone: its latencies are the baseline tracing overhead is stated
// against, and the runtime and statz deltas are taken over it, where
// one server executes each op once. Then a twin server and the shadow
// are brought to the same state by replaying the request log, and
// pass 2 runs the next stretch of the same op sequence three ways
// under spans.
func tracedAPI(run *runConfig, tr *tracer, n int, m metricSet) (*result, error) {
	be := &backend{tr: tr}
	built, err := build(run, be)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer built.close()
	w, ok := built.(apiWorld)
	if !ok {
		return nil, fmt.Errorf("workload %s does not speak mpcd's API", run.workload)
	}
	srv := w.loopbackServer()
	var before, after runtime.MemStats
	statz0 := srv.Statz()
	be.untraced = nil // set-up's requests are not pass 1's
	runtime.ReadMemStats(&before)
	p1 := w.pass(be, n)
	runtime.ReadMemStats(&after)
	statz1 := srv.Statz()
	runtimeDelta(&before, &after, p1.ops, m)
	statzMetrics(statz0, statz1, m)
	m.set("comm_facts_per_op", ratio(p1.comm, p1.ops), p1.ops)
	m.set("max_load_per_op", ratio(p1.maxLoad, p1.ops), p1.ops)
	m.set("mpcd.rejected_share", ratio(p1.rejected, p1.ops), p1.ops)
	untraced := be.untraced // per request, as the spans of pass 2 are
	if err := w.betweenPasses(); err != nil {
		return nil, err
	}

	twin := mpcd.New(mpcd.Config{})
	sh := newShadow(twin.Config(), tr)
	if err := be.attachTwins(twin, sh); err != nil {
		return nil, err
	}
	be.measuring = true
	p2 := w.pass(be, n)
	be.measuring = false
	res := &result{attempted: p1.ops + p2.ops, failed: p1.failed + p2.failed + be.mismatches, firstErr: p1.err}
	if http := tr.stageMS("mpcd.http"); len(untraced) > 0 && len(http) > 0 {
		res.untracedP50, res.tracedP50 = median(untraced), median(http)
		m.set("trace.overhead", res.tracedP50/res.untracedP50, len(http))
	}

	if err := storeProbe(sh, m); err != nil {
		return nil, err
	}
	if err := wireProbe(sh, m); err != nil {
		return nil, err
	}
	snapDir := filepath.Join(run.scratch, "snapshot")
	if _, err := restartProbe(be.twin, snapDir, srv.Config(), w.residentFacts(), w.control, m); err != nil {
		return nil, err
	}

	if res.firstErr == nil {
		res.firstErr = p2.err
	}
	if res.firstErr == nil {
		res.firstErr = be.firstErr
	}
	return res, nil
}

func statzMetrics(a, b mpcd.StatzResponse, m metricSet) {
	admitted := b.Admitted - a.Admitted
	m.set("mpcd.reuse_ratio", ratio(b.Reused-a.Reused, admitted), admitted)
	plans := (b.PlanHits - a.PlanHits) + (b.PlanMisses - a.PlanMisses)
	m.set("mpcd.plan_hit_ratio", ratio(b.PlanHits-a.PlanHits, plans), plans)
	covers := (b.CoverHits - a.CoverHits) + (b.CoverMisses - a.CoverMisses)
	m.set("mpcd.cover_hit_ratio", ratio(b.CoverHits-a.CoverHits, covers), covers)
	m.set("mpcd.cover_skips", float64(b.CoverSkips-a.CoverSkips), admitted)
}

// tracedEngine is the traced run of the engine_tcp_* workloads: the
// same runs untraced first, then each run beside the simulator and the
// sequential shadow of its stages.
func tracedEngine(run *runConfig, tr *tracer, n int, m metricSet) (*result, error) {
	built, err := buildEngine(run, run.workload)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	w := built
	res := &result{}
	book := func(err error) {
		res.attempted++
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
		}
	}

	var before, after runtime.MemStats
	var untraced, ckptKB []float64
	runtime.ReadMemStats(&before)
	for k := 0; k < n; k++ {
		took, err := w.runOnce(nil, func(dir string) {
			if size, derr := dirBytes(dir); derr == nil {
				ckptKB = append(ckptKB, float64(size)/1024)
			}
		})
		book(err)
		untraced = append(untraced, ms(took))
	}
	runtime.ReadMemStats(&after)
	runtimeDelta(&before, &after, n, m)
	m.setMedian("mpcnet.ckpt_kb", ckptKB)
	m.set("mpcnet.respawns", 0, n) // check() fails any run that respawned
	m.set("comm_facts_per_op", float64(w.ref.TotalComm), n)
	m.set("max_load_per_op", float64(w.ref.MaxLoad), n)

	tcp, err := mpc.NewTCPTransport(w.built.P)
	if err != nil {
		return nil, err
	}
	defer tcp.Close()
	var ws wireSamples
	var frameNS []float64
	for k := 0; k < n; k++ {
		tr.beginOp()
		tr.span(opSpan, func() {
			_, err := w.runOnce(tr, nil)
			book(err)
			tr.span("mpcnet.run_local", func() { _, err = mpcnet.RunLocal(w.spec) })
			if err == nil {
				tr.span(shadowSpan, func() { err = w.engineShadow(tr, tcp, &ws, &frameNS) })
			}
			if err != nil {
				book(err)
			}
		})
		tr.endOp()
	}
	ws.report(m)
	m.setMedian("mpc.frame_rw_ns_per_fact", frameNS)
	runMS, localMS := tr.stageMS("mpcnet.run"), tr.stageMS("mpcnet.run_local")
	if len(runMS) > 0 && len(localMS) > 0 {
		m.set("trace.overhead", median(runMS)/median(untraced), len(runMS))
		m.set("mpcnet.tcp_over_local", median(runMS)/median(localMS), len(runMS))
		m.set("mpcnet.round_overhead_ms", (median(runMS)-median(localMS))/float64(w.ref.Rounds), len(runMS))
	}
	return res, nil
}

// stageMetrics maps a span name to the metric that reports its median
// per-op time.
var stageMetrics = map[string]string{
	"cq.parse":              "cq.parse_ms",
	"pc.covers":             "pc.covers_ms",
	"mpc.union":             "mpc.union_ms",
	"hypercube.route_count": "hypercube.route_count_ms",
	"mpc.load":              "mpc.load_ms",
	"mpc.round":             "mpc.round_ms",
	"cq.eval_local":         "cq.eval_local_ms",
	"rel.render":            "rel.render_ms",
	"mpcd.json":             "mpcd.json_ms",
	"datalog.eval":          "datalog.eval_ms",
	"mpcd.handler":          "mpcd.handler_ms",
	"aux.exchange_local":    "mpc.exchange_local_ms",
	"aux.exchange_tcp":      "mpc.exchange_tcp_ms",
	"mpcnet.run_local":      "mpcnet.run_local_ms",
}

// valueMetrics does the same for per-op values.
var valueMetrics = map[string]string{
	"eval_local_max_server_ms": "cq.eval_local_max_server_ms",
	"response_kb":              "mpcd.response_kb",
	"replication":              "hypercube.replication",
}

// layerMetrics derives the per-layer metrics a traced pass supports
// from its spans: stage medians, per-fact rates, and what the shadow
// pipeline leaves unexplained of the op as the server ran it.
func layerMetrics(tr *tracer, m metricSet) {
	for stage, metric := range stageMetrics {
		m.setMedian(metric, tr.stageMS(stage))
	}
	for value, metric := range valueMetrics {
		m.setMedian(metric, tr.values(value))
	}
	// Shares are solved once per query shape and cluster width and
	// cached for the server's life, so the solve is timed wherever in
	// the run it happened — for a warm server, that is set-up.
	m.setMedian("hypercube.shares_ms", append(tr.setupMS("hypercube.shares"), tr.stageMS("hypercube.shares")...))
	var routeNS, roundNS, overhead, residual, coverage []float64
	for _, r := range tr.ops {
		if facts := r.value["facts"]; facts > 0 {
			if d, ok := r.stage["hypercube.route_count"]; ok {
				routeNS = append(routeNS, float64(d)/facts)
			}
			if d, ok := r.stage["mpc.round"]; ok {
				roundNS = append(roundNS, float64(d)/facts)
			}
		}
		handler, ok := r.stage["mpcd.handler"]
		if http, both := r.stage["mpcd.http"]; ok && both {
			overhead = append(overhead, ms(http-handler))
		}
		// What the server did for the op: the handler call, plus the
		// restart or the distributed run where the op is one.
		served := handler + r.stage["mpcd.restart"] + r.stage["mpcnet.run"]
		if served > 0 && r.shadow > 0 {
			residual = append(residual, ms(served-r.shadow))
			coverage = append(coverage, float64(r.shadow)/float64(served))
		}
	}
	residualMetric := "mpcd.residual_ms"
	if len(tr.stageMS("mpcnet.run")) > 0 {
		residualMetric = "mpcnet.residual_ms"
	}
	m.setMedian("hypercube.route_ns_per_fact", routeNS)
	m.setMedian("mpc.round_ns_per_fact", roundNS)
	m.setMedian("mpcd.http_overhead_ms", overhead)
	m.setMedian(residualMetric, residual)
	m.setMedian("trace.coverage", coverage)
}

// makeScratch creates the run's private directory under out.
func makeScratch(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, "scratch-")
}
