package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed interval of a traced run, its ends counted from
// process start. Spans of one op share its id; parent is the index of
// the enclosing span, -1 at the root.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	op         int
}

// opRecord is what the traced pass keeps per op besides its spans:
// the summed duration of every stage (so a stage that ran twice counts
// once, with both times) and plain values such as facts routed.
type opRecord struct {
	stage  map[string]time.Duration
	value  map[string]float64
	shadow time.Duration // Σ of the shadow pipeline's stages, aux.* probes excluded
}

// tracer records spans in memory from the one goroutine that runs a
// traced pass; nothing is written until the run ends.
type tracer struct {
	spans []span
	cur   int // innermost open span, -1 at top level
	ops   []*opRecord
	rec   *opRecord                  // the measured op in progress; nil during set-up
	setup map[string][]time.Duration // stage times outside measured ops
}

func newTracer() *tracer {
	return &tracer{cur: -1, setup: map[string][]time.Duration{}}
}

// beginOp opens the record of the next measured op.
func (t *tracer) beginOp() {
	t.rec = &opRecord{stage: map[string]time.Duration{}, value: map[string]float64{}}
	t.ops = append(t.ops, t.rec)
}

func (t *tracer) endOp() { t.rec = nil }

// span times fn under name, nested in whatever span is open. A nil
// tracer times fn and records nothing, so code that runs both traced
// and untraced is written once.
func (t *tracer) span(name string, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: t.cur, op: len(t.ops) - 1})
	t.cur = id
	start := time.Now()
	fn()
	end := time.Now()
	t.spans[id].start, t.spans[id].end = start.Sub(processStart), end.Sub(processStart)
	t.cur = t.spans[id].parent
	d := end.Sub(start)
	if t.rec == nil {
		t.setup[name] = append(t.setup[name], d)
		return d
	}
	t.rec.stage[name] += d
	if p := t.spans[id].parent; p >= 0 && t.spans[p].name == shadowSpan && !strings.HasPrefix(name, "aux.") {
		t.rec.shadow += d
	}
	return d
}

// value records a per-op number that is not a duration.
func (t *tracer) value(name string, v float64) {
	if t.rec != nil {
		t.rec.value[name] = v
	}
}

// stageMS lists, over the measured ops that ran the stage, its time in
// milliseconds.
func (t *tracer) stageMS(name string) []float64 {
	var out []float64
	for _, r := range t.ops {
		if d, ok := r.stage[name]; ok {
			out = append(out, ms(d))
		}
	}
	return out
}

// setupMS lists the stage's times outside measured ops.
func (t *tracer) setupMS(name string) []float64 {
	out := make([]float64, len(t.setup[name]))
	for i, d := range t.setup[name] {
		out[i] = ms(d)
	}
	return out
}

func (t *tracer) values(name string) []float64 {
	var out []float64
	for _, r := range t.ops {
		if v, ok := r.value[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// selfTimes returns, per span name, the per-op self time in ms: the
// span's duration minus the part its children cover. Only spans inside
// measured ops count.
func (t *tracer) selfTimes() map[string][]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	type key struct {
		name string
		op   int
	}
	perOp := map[key]time.Duration{}
	for i, s := range t.spans {
		if s.op < 0 || t.spans[rootOf(t.spans, i)].name != opSpan {
			continue
		}
		perOp[key{s.name, s.op}] += s.end - s.start - child[i]
	}
	out := map[string][]float64{}
	for k, d := range perOp {
		out[k.name] = append(out[k.name], ms(d))
	}
	return out
}

func rootOf(spans []span, i int) int {
	for spans[i].parent >= 0 {
		i = spans[i].parent
	}
	return i
}

// opSpan is the root span of every measured op; shadowSpan encloses
// the shadow pipeline's stages within it.
const (
	opSpan     = "op"
	shadowSpan = "shadow"
)

// chromeEvent is one complete ("X") event of the Chrome trace format,
// times in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write stores the spans as Chrome-trace JSON (chrome://tracing,
// Perfetto).
func (t *tracer) write(path string) error {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]int{"op": s.op, "parent": s.parent, "id": i},
		}
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
