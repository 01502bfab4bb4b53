package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mpclogic/internal/mpc"
	"mpclogic/internal/mpcnet"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

const (
	workloadBulk   = "engine_tcp_bulk"
	workloadRounds = "engine_tcp_rounds"
)

// engine_tcp_rounds holds fixed what it is about. The tc program's
// depth and the facts it moves are properties of the seeded graph —
// among 64-edge graphs the depth runs from 5 to 20 and, at depth 12, the
// communication from 7 500 to 16 500 facts — and per-round fixed cost
// only shows against a fixed number of rounds of a fixed size. So the
// seed names a sequence of graphs, and the workload runs, of the first
// engineCandidates of depth engineRounds, the one whose communication is
// nearest engineRoundsComm (typically within 2 %). Comparing a fixed
// number of candidates keeps set-up time from depending on the seed's
// luck: one graph in six has the depth.
const (
	engineRounds     = 12
	engineRoundsComm = 12500
	engineCandidates = 8
)

// workerDone is one mpcnet worker incarnation run as a goroutine of
// this process, as mpcnet's own tests do: Wait receives its exit, Kill
// is a no-op because the goroutine unwinds on its own once the
// coordinator fails the run and its sockets start erroring.
type workerDone chan error

func (d workerDone) Wait() error { return <-d }

func (workerDone) Kill() {}

// workerJob hands one incarnation to the pool.
type workerJob struct {
	cfg  mpcnet.WorkerConfig
	done workerDone
}

// distributed is mpcnet.Run over a pool of p goroutine workers that
// lives exactly as long as the run: the spawner hands incarnations to
// the pool, and the pool is joined before the result is returned.
func distributed(spec mpcnet.ProgramSpec, p int, dir string) (*mpcnet.RunResult, error) {
	jobs := make(chan workerJob)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				job.done <- mpcnet.RunWorker(job.cfg)
			}
		}()
	}
	res, err := mpcnet.Run(mpcnet.RunConfig{
		Spec: spec, CkptDir: dir, FailWorker: -1, FailRound: -1,
		Spawn: func(cfg mpcnet.WorkerConfig) (mpcnet.Process, error) {
			job := workerJob{cfg: cfg, done: make(workerDone, 1)}
			jobs <- job
			return job.done, nil
		},
	})
	close(jobs)
	wg.Wait()
	return res, err
}

type engineWorld struct {
	run   *runConfig
	spec  mpcnet.ProgramSpec
	built *mpcnet.Built
	ref   *mpcnet.RunResult
	root  string // parent of the per-run checkpoint directories
	runs  int
}

func engineSpec(kind string, seed int64) (mpcnet.ProgramSpec, error) {
	if kind == workloadBulk {
		return mpcnet.ProgramSpec{Program: "hypercube", P: 4, M: 20000, Seed: uint64(seed)}, nil
	}
	spec := mpcnet.ProgramSpec{Program: "tc", P: 4, M: 64}
	base := rel.Mix64(uint64(seed))
	best, bestOff := uint64(0), -1
	for k, found := uint64(0), 0; k < 1024 && found < engineCandidates; k++ {
		spec.Seed = base + k
		built, err := mpcnet.Build(spec)
		if err != nil {
			return spec, err
		}
		if len(built.Rounds) != engineRounds {
			continue
		}
		found++
		ref, err := mpcnet.RunLocal(spec)
		if err != nil {
			return spec, err
		}
		off := ref.TotalComm - engineRoundsComm
		if off < 0 {
			off = -off
		}
		if bestOff < 0 || off < bestOff {
			best, bestOff = spec.Seed, off
		}
	}
	if bestOff < 0 {
		return spec, fmt.Errorf("none of the tc graphs seed %d names has depth %d", seed, engineRounds)
	}
	spec.Seed = best
	return spec, nil
}

// buildEngine elaborates the spec, computes the simulator's reference
// and runs the distributed engine once to warm it up.
func buildEngine(run *runConfig, kind string) (*engineWorld, error) {
	spec, err := engineSpec(kind, run.seed)
	if err != nil {
		return nil, err
	}
	w := &engineWorld{run: run, spec: spec, root: filepath.Join(run.scratch, "ckpt")}
	if w.built, err = mpcnet.Build(spec); err != nil {
		return nil, err
	}
	if w.ref, err = mpcnet.RunLocal(spec); err != nil {
		return nil, fmt.Errorf("local reference: %w", err)
	}
	if _, err := w.runOnce(nil, nil); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	return w, nil
}

// runOnce is one op: a whole distributed run over loopback, checked
// against the simulator, with a span around the run itself; inspect, when not nil, sees the checkpoint directory before
// it is removed.
func (w *engineWorld) runOnce(tr *tracer, inspect func(dir string)) (time.Duration, error) {
	dir := filepath.Join(w.root, fmt.Sprintf("run-%d", w.runs))
	w.runs++
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	var got *mpcnet.RunResult
	var err error
	took := tr.span("mpcnet.run", func() { got, err = distributed(w.spec, w.built.P, dir) })
	if err != nil {
		return took, err
	}
	if inspect != nil {
		inspect(dir)
	}
	return took, w.check(got)
}

func (w *engineWorld) check(got *mpcnet.RunResult) error {
	want := w.ref
	trace := []byte(got.Trace)
	if w.run.mangle != nil {
		trace = w.run.mangle(trace)
	}
	switch {
	case !got.Output.Equal(want.Output):
		return fmt.Errorf("distributed output differs from the simulator's")
	case string(trace) != want.Trace:
		return fmt.Errorf("distributed logical trace differs from the simulator's")
	case got.MaxLoad != want.MaxLoad || got.TotalComm != want.TotalComm || got.Rounds != want.Rounds:
		return fmt.Errorf("cost differs from the simulator's: max load %d/%d, comm %d/%d, rounds %d/%d",
			got.MaxLoad, want.MaxLoad, got.TotalComm, want.TotalComm, got.Rounds, want.Rounds)
	case got.Respawns != 0:
		return fmt.Errorf("fault-free run respawned %d workers", got.Respawns)
	}
	return nil
}

// measure runs one distributed execution at a time: a run is itself
// four workers and a coordinator, which already fill two cores.
func (w *engineWorld) measure(rec *recorder, window time.Duration) {
	deadline := rec.t0.Add(window)
	for time.Now().Before(deadline) {
		start := time.Now()
		took, err := w.runOnce(nil, nil)
		rec.record(start, start.Add(took), err)
		rec.calibrate()
	}
}

func (w *engineWorld) close() {}

// engineShadow performs one run's stages in sequence through the
// layers' exported functions. Stages named aux.* are probes beside the
// pipeline — a second routing pass, the push-plane exchange — and do
// not count towards trace.coverage.
func (w *engineWorld) engineShadow(tr *tracer, tcp mpc.Transport, ws *wireSamples, frameNS *[]float64) error {
	p := w.built.P
	var c *mpc.Cluster
	tr.span("mpc.load", func() {
		c = mpc.NewCluster(p)
		c.LoadRoundRobin(w.built.Input)
	})
	facts := 0
	for _, r := range w.built.Rounds {
		route := func() ([]mpc.Shard, error) {
			shards := make([]mpc.Shard, p)
			for i := range shards {
				sh, err := mpc.RouteSource(r, p, i, c.Server(i))
				if err != nil {
					return nil, err
				}
				shards[i] = sh
			}
			return shards, nil
		}
		var shards []mpc.Shard
		var err error
		tr.span("aux.route", func() { shards, err = route() })
		if err != nil {
			return err
		}
		// What a worker does to every outbox: encode, frame, and on
		// the far side unframe and decode.
		type outbox struct {
			payload []byte
			facts   int
		}
		var outboxes []outbox
		tr.span("rel.wire", func() {
			for _, sh := range shards {
				for _, out := range sh.Outs {
					if out == nil || out.IsEmpty() {
						continue
					}
					var payload []byte
					if payload, err = ws.add(out); err != nil {
						return
					}
					outboxes = append(outboxes, outbox{payload, out.Len()})
				}
			}
		})
		if err != nil {
			return err
		}
		tr.span("mpc.frame", func() {
			for i, ob := range outboxes {
				var buf bytes.Buffer
				start := time.Now()
				if err = mpc.WriteFrame(&buf, mpc.Frame{Seq: 1, Shard: uint32(i), Sent: uint32(ob.facts), Payload: ob.payload}); err != nil {
					return
				}
				if _, err = mpc.ReadFrame(&buf); err != nil {
					return
				}
				*frameNS = append(*frameNS, float64(time.Since(start))/float64(ob.facts))
			}
		})
		if err != nil {
			return err
		}
		tr.span("aux.exchange_local", func() { _, _, err = mpc.NewLocalTransport().Exchange(r.Name, p, shards) })
		if err != nil {
			return err
		}
		tr.span("aux.route", func() { shards, err = route() })
		if err != nil {
			return err
		}
		tr.span("aux.exchange_tcp", func() { _, _, err = tcp.Exchange(r.Name, p, shards) })
		if err != nil {
			return err
		}
		// The checkpoint a worker writes at the start of the round.
		tr.span("policy.encode_store", func() {
			for i := 0; i < p; i++ {
				facts += c.Server(i).Len()
				var buf bytes.Buffer
				if err = policy.EncodeStore(&buf, policy.NewStableStore([]*rel.Instance{c.Server(i)})); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		tr.span("mpc.round", func() { _, err = c.RunRound(r) })
		if err != nil {
			return err
		}
	}
	tr.value("facts", float64(facts))
	if !c.Output().Equal(w.ref.Output) {
		return fmt.Errorf("engine shadow output differs from the simulator's")
	}
	return nil
}
