// Command mpcrun generates a synthetic workload, evaluates a query on
// an MPC cluster with a chosen (or planner-chosen) algorithm, and
// prints the result and the cost profile the model cares about: the
// per-round loads, rounds, maximum load, total communication.
//
// Usage:
//
//	mpcrun -workload triangle -m 1000 -p 64
//	mpcrun -workload join -skew 0.5 -algo grouping -p 16
//	mpcrun -algo yannakakis -p 8
//	mpcrun -algo tc -p 4 -m 32 -seed 7 -transport tcp
//
// The flags make one mpcnet.ProgramSpec — -algo is its program, a row
// of core.Menu (the planner, core.ChoosePlan, picks one when it is
// empty), -workload its input (default: the algorithm's home workload)
// — and -transport picks the executor: local (the default) is the
// in-process simulator, tcp forks one worker process per server (this
// same binary in -worker mode) exchanging fragments over loopback TCP.
// Both print the identical byte-for-byte report — that equality is the
// point, and the e2e tests diff it verbatim. Worker processes checkpoint
// each round under -ckpt, so a killed worker is respawned and recovers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"

	"mpclogic/internal/core"
	"mpclogic/internal/mpcnet"
)

func main() {
	wl := flag.String("workload", "", "workload: triangle | chain | join | graph (default: the algorithm's home workload)")
	m := flag.Int("m", 10000, "tuples per relation")
	p := flag.Int("p", 64, "number of servers")
	skew := flag.Float64("skew", 0, "fraction of tuples sharing one heavy join value (triangle, join)")
	algo := flag.String("algo", "", "algorithm: "+core.Names()+" (default: planner decides)")
	oneRound := flag.Bool("one-round", true, "restrict the planner to one round")
	wcoj := flag.Bool("wcoj", false, "use the worst-case-optimal generic join as the local engine (hypercube only)")
	seed := flag.Uint64("seed", 7, "workload and routing seed")

	transport := flag.String("transport", "local", "executor: local (in-process simulator) | tcp (one worker process per server)")
	ckpt := flag.String("ckpt", "", "checkpoint directory (default: a temporary directory)")
	failWorker := flag.Int("fail-worker", -1, "kill this worker once mid-program to exercise recovery (tcp mode)")
	failRound := flag.Int("fail-round", 1, "round at which -fail-worker dies")

	worker := flag.Bool("worker", false, "internal: run as a worker process")
	workerIndex := flag.Int("worker-index", -1, "internal: worker server index")
	coord := flag.String("coord", "", "internal: coordinator control address")
	specJSON := flag.String("spec", "", "internal: ProgramSpec as JSON")
	failpoint := flag.Int("failpoint", -1, "internal: self-kill after checkpointing this round")
	flag.Parse()

	if *worker {
		runWorker(*specJSON, *workerIndex, *coord, *ckpt, *failpoint)
		return
	}
	if *transport != "local" && *transport != "tcp" {
		fail(2, fmt.Errorf("unknown transport %q (want local | tcp)", *transport))
	}

	// Everything a flag can get wrong is rejected here, before a header
	// line is printed or a process forked.
	w, err := mpcnet.WorkloadFor(*wl, *algo)
	if err != nil {
		fail(2, err)
	}
	spec := mpcnet.ProgramSpec{Program: *algo, P: *p, M: *m, Seed: *seed, Workload: w.Name, Skew: *skew, WCOJ: *wcoj}
	rationale := "algorithm forced on the command line"
	if spec.Program == "" {
		q, err := w.CQ()
		if err == nil && q == nil {
			err = fmt.Errorf("workload %s has no query for the planner to read: name an -algo", w.Name)
		}
		if err != nil {
			fail(2, err)
		}
		plan, err := core.ChoosePlan(q, spec.P, *oneRound, spec.Skew > 0)
		if err != nil {
			fail(2, err)
		}
		spec.Program, spec.WCOJ, rationale = string(plan.Algorithm), spec.WCOJ || plan.WCOJ, plan.Rationale
	}
	built, err := mpcnet.Build(spec)
	if err != nil {
		fail(2, err)
	}

	// The header names what will run: HyperCube rounds p down to a
	// product of integer shares, so the width is the effective one, with
	// the requested one beside it only where they differ.
	fmt.Printf("workload: %s, m=%d per relation (%d facts), skew=%.2f, seed=%d\n",
		w.Name, spec.M, built.Input.Len(), spec.Skew, spec.Seed)
	if w.Query != "" {
		fmt.Printf("query:    %s\n", w.Query)
	}
	width := fmt.Sprintf("p=%d", built.P)
	if built.P != spec.P {
		width += fmt.Sprintf(" (of %d requested)", spec.P)
	}
	fmt.Printf("plan:     %s %s — %s\n", spec.Program, width, rationale)
	if skewed := core.DetectSkew(built.Input, built.Input.Len()/built.P); len(skewed) > 0 {
		fmt.Printf("skew:     heavy hitters detected in %d relation column(s)\n", len(skewed))
	}

	// The byte-compared half: every field is a logical observable —
	// nothing here may depend on which transport moved the bytes or on
	// how many times a worker died (that goes to stderr).
	res, err := run(*transport, spec, *ckpt, *failWorker, *failRound)
	if err != nil {
		fail(1, err)
	}
	fmt.Printf("result:   %d output facts\n", res.Output.Len())
	fmt.Printf("output:   %s\n", res.Output)
	fmt.Printf("trace:\n%s", res.Trace)
	fmt.Printf("cost:     rounds=%d maxLoad=%d totalComm=%d deltaComm=%d\n",
		res.Rounds, res.MaxLoad, res.TotalComm, res.DeltaComm)
	if res.Respawns > 0 {
		fmt.Fprintf(os.Stderr, "mpcrun: recovered %d worker incarnation(s)\n", res.Respawns)
	}
}

// runWorker is the -worker entry point: one server of a distributed
// run, configured entirely from the command line by the coordinator.
func runWorker(specJSON string, index int, coord, ckpt string, failpoint int) {
	var spec mpcnet.ProgramSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fail(1, fmt.Errorf("worker spec: %w", err))
	}
	err := mpcnet.RunWorker(mpcnet.WorkerConfig{
		Index:     index,
		Spec:      spec,
		CoordAddr: coord,
		CkptDir:   ckpt,
		FailRound: failpoint,
	})
	if err != nil {
		fail(1, fmt.Errorf("worker %d: %w", index, err))
	}
}

// execSpawner relaunches this binary in -worker mode, one process per
// incarnation. Worker stderr is passed through for diagnostics;
// stdout stays clean for the coordinator's byte-compared report.
func execSpawner(bin string) mpcnet.Spawner {
	return func(cfg mpcnet.WorkerConfig) (mpcnet.Process, error) {
		specJSON, err := json.Marshal(cfg.Spec)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin,
			"-worker",
			"-spec", string(specJSON),
			"-worker-index", strconv.Itoa(cfg.Index),
			"-coord", cfg.CoordAddr,
			"-ckpt", cfg.CkptDir,
			"-failpoint", strconv.Itoa(cfg.FailRound),
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return &execProc{cmd: cmd}, nil
	}
}

type execProc struct{ cmd *exec.Cmd }

func (p *execProc) Wait() error { return p.cmd.Wait() }

func (p *execProc) Kill() {
	if p.cmd.Process != nil {
		// Kill errors only when the process is already gone, which is the
		// outcome Kill wants; the monitor's Wait still reaps the child.
		_ = p.cmd.Process.Kill()
	}
}

// run executes spec on the chosen transport. local and tcp must
// produce identical results; only the respawn count may differ.
func run(transport string, spec mpcnet.ProgramSpec, ckpt string, failWorker, failRound int) (*mpcnet.RunResult, error) {
	if transport == "local" {
		return mpcnet.RunLocal(spec)
	}
	dir := ckpt
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "mpcrun-ckpt-*"); err != nil {
			return nil, err
		}
		// Scratch checkpoints are junk once the run ends, but a failed
		// cleanup should not pass silently — leaked directories add up
		// across CI runs. Surface it on stderr, which is not byte-compared.
		defer func() {
			if rmErr := os.RemoveAll(dir); rmErr != nil {
				fmt.Fprintf(os.Stderr, "mpcrun: leaking scratch checkpoint dir: %v\n", rmErr)
			}
		}()
	}
	bin, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return mpcnet.Run(mpcnet.RunConfig{
		Spec:       spec,
		CkptDir:    dir,
		FailWorker: failWorker,
		FailRound:  failRound,
		Spawn:      execSpawner(bin),
	})
}

// fail reports err and exits: status 2 for a command line that cannot
// run — a bad flag value, a (workload, algorithm) pair the plan
// rejects — and 1 for a run that broke.
func fail(status int, err error) {
	fmt.Fprintf(os.Stderr, "mpcrun: %v\n", err)
	os.Exit(status)
}
