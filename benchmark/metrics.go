package main

import (
	"math"
	"sort"
	"time"
)

// metricDef declares one metric the benchmark prints. The two tables
// below are the benchmark's whole vocabulary; BENCHMARK.json repeats
// the names with bounds, and main_test.go fails when the two drift.
type metricDef struct {
	Name string
	Unit string
}

// endToEndMetrics are printed by an untraced run (-trace 0) on every
// workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"heap_live_mb", "MB"},
}

// perLayerMetrics are printed by a traced run (-trace 1). A layer that
// does no work on a workload reads 0 there — that is the prediction
// "this workload bypasses the layer", stated as a number.
var perLayerMetrics = []metricDef{
	// The paper's cost, as the user's budget sees it. Exact per seed.
	{"comm_facts_per_op", "facts"},
	{"max_load_per_op", "facts"},

	// Shadow pipeline stages, median ms per op that ran the stage.
	{"cq.parse_ms", "ms"},
	{"hypercube.shares_ms", "ms"},
	{"pc.covers_ms", "ms"},
	{"mpc.union_ms", "ms"},
	{"hypercube.route_count_ms", "ms"},
	{"hypercube.route_ns_per_fact", "ns/fact"},
	{"hypercube.replication", "ratio"},
	{"mpc.load_ms", "ms"},
	{"mpc.round_ms", "ms"},
	{"mpc.round_ns_per_fact", "ns/fact"},
	{"cq.eval_local_ms", "ms"},
	{"cq.eval_local_max_server_ms", "ms"},
	{"rel.render_ms", "ms"},
	{"mpcd.json_ms", "ms"},
	{"mpcd.response_kb", "KB"},
	{"datalog.eval_ms", "ms"},

	// The same op three ways, and what the shadow does not explain.
	{"mpcd.handler_ms", "ms"},
	{"mpcd.http_overhead_ms", "ms"},
	{"mpcd.residual_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},

	// Server counters over the untraced pass.
	{"mpcd.reuse_ratio", "ratio"},
	{"mpcd.plan_hit_ratio", "ratio"},
	{"mpcd.cover_hit_ratio", "ratio"},
	{"mpcd.cover_skips", "count"},
	{"mpcd.rejected_share", "ratio"},

	// Snapshots.
	{"mpcd.snapshot_save_ms", "ms"},
	{"mpcd.snapshot_load_ms", "ms"},
	{"mpcd.restart_ms", "ms"},
	{"mpcd.snapshot_bytes_per_fact", "B/fact"},
	{"policy.encode_store_ns_per_fact", "ns/fact"},
	{"policy.decode_store_ns_per_fact", "ns/fact"},
	{"policy.store_bytes_per_fact", "B/fact"},

	// Wire and data planes.
	{"rel.wire_encode_ns_per_fact", "ns/fact"},
	{"rel.wire_decode_ns_per_fact", "ns/fact"},
	{"rel.wire_bytes_per_fact", "B/fact"},
	{"mpc.frame_rw_ns_per_fact", "ns/fact"},
	{"mpc.exchange_local_ms", "ms"},
	{"mpc.exchange_tcp_ms", "ms"},
	{"mpcnet.run_local_ms", "ms"},
	{"mpcnet.tcp_over_local", "ratio"},
	{"mpcnet.round_overhead_ms", "ms"},
	{"mpcnet.residual_ms", "ms"},
	{"mpcnet.ckpt_kb", "KB"},
	{"mpcnet.respawns", "count"},

	// Go runtime over the untraced pass.
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
}

// exactLayerMetrics repeat exactly for a fixed seed: they count facts
// and bytes, never time. run.sh -check asserts that.
var exactLayerMetrics = []string{
	"comm_facts_per_op",
	"max_load_per_op",
	"hypercube.replication",
	"mpcd.response_kb",
	"mpcd.rejected_share",
	"mpcd.snapshot_bytes_per_fact",
	"policy.store_bytes_per_fact",
	"rel.wire_bytes_per_fact",
	"mpcnet.ckpt_kb",
	"mpcnet.respawns",
}

// measurement is one reported number with the count of samples behind
// it.
type measurement struct {
	Value   float64
	Samples int
}

// metricSet collects named measurements; names outside the declared
// tables are a programming error caught by main_test.go.
type metricSet map[string]measurement

func (m metricSet) set(name string, v float64, samples int) {
	m[name] = measurement{Value: v, Samples: samples}
}

// setMedian reports the median of vs, or leaves the metric at its zero
// default when the workload produced no sample for it.
func (m metricSet) setMedian(name string, vs []float64) {
	if len(vs) > 0 {
		m.set(name, median(vs), len(vs))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics; vs need not be sorted and is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
