package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"mpclogic/internal/cq"
	"mpclogic/internal/datalog"
	"mpclogic/internal/mpcd"
	"mpclogic/internal/mpcd/loadgen"
	"mpclogic/internal/rel"
)

const workloadMixed = "serve_small_mixed"

// serve_small_mixed is the repo's own traffic definition at its own
// sizes: loadgen's seeded scripts over many tiny sessions, epoch after
// epoch on one server. An epoch is 1024 sessions because a seed draws
// every session's size and script: at 256 sessions the draw alone moved
// latency_p50_ms by 9–15 % from seed to seed, at 1024 by under 4 %. The
// traced run replays the first four sessions
// with fifteen queries each — 64 requests, a prefix of the same
// scripts, since a session's script depends on seed and index alone.
var (
	mixedEpoch  = loadgen.Config{Sessions: 1024, Queries: 16, Workers: clients}
	mixedPrefix = loadgen.Config{Sessions: 4, Queries: 15, Workers: 1}
)

type mixedWorld struct {
	run    *runConfig
	epoch  loadgen.Config
	srv    *mpcd.Server
	front  *loopback
	api    loadgen.Client
	own    []*loadgen.HTTPClient
	digest string // the warm-up epoch's, oracle-checked
	facts  int    // resident facts once an epoch's sessions exist
}

// timingClient wraps a loadgen.Client: every request is one op of the
// window. A typed 4xx is a correct answer here — the scripts starve a
// budget and break a query on purpose — while 5xx, untyped refusals
// and transport errors fail the op.
type timingClient struct {
	inner  loadgen.Client
	rec    *recorder      // nil: do not book
	oracle *centralOracle // nil: do not check answers
	mangle func([]byte) []byte
}

var codeKey = []byte(`"code":"`)

func (t *timingClient) Do(method, path string, body []byte) (int, []byte, error) {
	start := time.Now()
	status, raw, err := t.inner.Do(method, path, body)
	end := time.Now()
	if t.mangle != nil {
		raw = t.mangle(raw)
	}
	opErr := err
	switch {
	case err != nil:
	case status >= 500:
		opErr = fmt.Errorf("%s %s: status %d %s", method, path, status, clip(raw))
	case status != 200 && !bytes.Contains(raw, codeKey):
		opErr = fmt.Errorf("%s %s: untyped refusal %d %s", method, path, status, clip(raw))
	case t.oracle != nil:
		opErr = t.oracle.observe(method, path, body, status, raw)
	}
	if t.rec != nil {
		t.rec.record(start, end, opErr)
		t.rec.calibrate()
	}
	if opErr != nil && err == nil && t.rec == nil {
		return status, raw, opErr // set-up: stop at the first wrong answer
	}
	return status, raw, err
}

// centralOracle checks executed queries against central evaluation on
// the session's whole instance, rebuilt from its create request.
type centralOracle struct {
	mu    sync.Mutex
	insts map[string]*rel.Instance
	facts int
}

func (o *centralOracle) observe(method, path string, body []byte, status int, raw []byte) error {
	if method != "POST" || status != 200 {
		return nil
	}
	if path == "/v1/sessions" {
		var req shadowCreate
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		inst, err := generate(req.Generator, req.N, req.M, req.Seed)
		if err != nil {
			return err
		}
		o.mu.Lock()
		o.insts[req.ID] = inst
		o.facts += inst.Len()
		o.mu.Unlock()
		return nil
	}
	var req shadowQueryReq
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	var resp mpcd.QueryResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("undecodable reply %s", clip(raw))
	}
	o.mu.Lock()
	inst := o.insts[req.Session]
	o.mu.Unlock()
	if inst == nil {
		return fmt.Errorf("reply for session %q the oracle never saw created", req.Session)
	}
	d := rel.NewDict()
	var out *rel.Instance
	if req.Lang == mpcd.LangDatalog {
		prog, err := datalog.Parse(d, req.Query)
		if err != nil {
			return err
		}
		if out, err = datalog.EvalQuery(prog, inst, req.Out); err != nil {
			return err
		}
	} else {
		q, err := cq.Parse(d, req.Query)
		if err != nil {
			return err
		}
		out = cq.Output(q, inst)
	}
	want := renderFacts(out, d)
	if !slices.Equal(resp.Output, want) {
		return fmt.Errorf("session %s, %q: %d answers, the central oracle has %d (or they differ)",
			req.Session, req.Query, len(resp.Output), len(want))
	}
	return nil
}

// buildMixed starts the server and runs the warm-up epoch under the
// oracle; its digest is what every measured epoch must reproduce.
func buildMixed(run *runConfig, epoch loadgen.Config, be *backend) (*mixedWorld, error) {
	epoch.Seed = run.seed
	w := &mixedWorld{run: run, epoch: epoch}
	w.srv = mpcd.New(mpcd.Config{})
	w.front = newLoopback(w.srv.Handler())
	c := w.newClient()
	if be != nil {
		be.http = c
		w.api = be
	} else {
		w.api = c
	}
	or := &centralOracle{insts: map[string]*rel.Instance{}}
	rep, err := loadgen.Run(epoch, &timingClient{inner: w.api, oracle: or})
	if err != nil {
		return nil, fmt.Errorf("warm-up epoch: %w", err)
	}
	w.digest, w.facts = rep.Digest, or.facts
	if err := w.deleteAll(w.api); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *mixedWorld) newClient() *loadgen.HTTPClient {
	c := w.front.newClient(clients)
	w.own = append(w.own, c)
	return c
}

// deleteAll removes the epoch's sessions, lg0 upward, from the epoch's
// worker count of goroutines.
func (w *mixedWorld) deleteAll(api loadgen.Client) error {
	errs := make([]error, w.epoch.Workers)
	var wg sync.WaitGroup
	for g := 0; g < w.epoch.Workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < w.epoch.Sessions; i += w.epoch.Workers {
				status, raw, err := api.Do("DELETE", fmt.Sprintf("/v1/sessions/lg%d", i), nil)
				if err == nil && status != 200 {
					err = fmt.Errorf("deleting lg%d: %d %s", i, status, clip(raw))
				}
				if err != nil && errs[g] == nil {
					errs[g] = err
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runEpoch replays the scripts once; the digest must be the warm-up's.
func (w *mixedWorld) runEpoch(api loadgen.Client) (*loadgen.Report, error) {
	rep, err := loadgen.Run(w.epoch, api)
	if err != nil {
		return nil, err
	}
	if rep.Digest != w.digest {
		return nil, fmt.Errorf("epoch digest %s differs from the oracle-checked warm-up's %s", rep.Digest, w.digest)
	}
	return rep, nil
}

func (w *mixedWorld) measure(rec *recorder, window time.Duration) {
	timed := &timingClient{inner: w.newClient(), rec: rec, mangle: w.run.mangle}
	for {
		if _, err := w.runEpoch(timed); err != nil {
			rec.record(time.Now(), time.Now(), err)
		}
		if time.Since(rec.t0) >= window {
			return // the last epoch's sessions stay resident, for heap_live_mb
		}
		if err := w.deleteAll(timed); err != nil {
			rec.record(time.Now(), time.Now(), err)
			return // sessions are left over: the next epoch could not create them
		}
	}
}

func (w *mixedWorld) close() {
	for _, c := range w.own {
		closeClient(c)
	}
	w.front.close()
}

func (w *mixedWorld) loopbackServer() *mpcd.Server { return w.srv }

// betweenPasses deletes the prefix's sessions, which pass 2 creates
// again.
func (w *mixedWorld) betweenPasses() error { return w.deleteAll(w.api) }

func (w *mixedWorld) residentFacts() int { return w.facts }

// pass replays the epoch once with the world's api and reports it as
// the serve worlds report theirs. The sessions stay resident. The
// prefix is the epoch the world was built with, whatever n says.
func (w *mixedWorld) pass(*backend, int) passResult {
	rec := &recorder{}
	rec.open()
	rep, err := w.runEpoch(&timingClient{inner: w.api, rec: rec})
	res := passResult{ops: rec.attempted, failed: rec.failed, err: rec.firstErr}
	for _, s := range rec.samples {
		res.lats = append(res.lats, ms(s.lat))
	}
	if err != nil {
		res.failed++
		if res.err == nil {
			res.err = err
		}
		return res
	}
	res.comm = rep.Comm
	res.maxLoad = rep.VirtualTicks - rep.Queries // a query costs one tick plus its MaxLoad
	for _, n := range rep.Rejected {
		res.rejected += n
	}
	return res
}

// control asks the loopback server, which is never restarted in a
// traced run, for a reply on the first resident session: what a
// restored twin must reproduce byte for byte.
func (w *mixedWorld) control() (request, want []byte, err error) {
	request = queryBody("lg0", "D(x, y) :- R(x, y)")
	status, raw, err := w.own[0].Do("POST", "/v1/query", request)
	if err != nil {
		return nil, nil, err
	}
	if status != 200 {
		return nil, nil, fmt.Errorf("control reply: %d %s", status, clip(raw))
	}
	return request, raw, nil
}
