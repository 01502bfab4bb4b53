package mpcnet

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"mpclogic/internal/core"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
)

// Process is one live worker incarnation the coordinator can wait on
// and kill. The exec-based spawner wraps os/exec; tests wrap a
// goroutine running RunWorker directly.
type Process interface {
	// Wait blocks until the incarnation exits; a non-nil error means it
	// died abnormally (non-zero exit, killed by a signal).
	Wait() error
	// Kill terminates the incarnation; idempotent.
	Kill()
}

// Spawner launches one worker incarnation with the given config.
type Spawner func(cfg WorkerConfig) (Process, error)

// RunConfig describes one coordinated distributed run.
type RunConfig struct {
	Spec    ProgramSpec
	CkptDir string
	// FailWorker/FailRound arm the crash under test: worker FailWorker's
	// FIRST incarnation self-kills after checkpointing FailRound.
	// FailWorker < 0 disables the failpoint.
	FailWorker int
	FailRound  int
	Spawn      Spawner
}

// RunResult is the coordinator's view of a completed run, carrying
// exactly the observables the equivalence tests compare against the
// simulator: core's cost profile — the output union, the logical trace
// and the cost metrics — plus the per-server fragments.
type RunResult struct {
	core.Result
	Fragments []*rel.Instance
	// Respawns counts worker incarnations beyond the first p — nonzero
	// exactly when recovery actually happened.
	Respawns int
}

// workerResult is one worker's final report.
type workerResult struct {
	received  []int
	deltaSent []int
	fragment  *rel.Instance
}

// coordinator is the run's control-plane state: the shares it deals,
// the address book the workers publish into and the result set they
// deliver into. Both of the run's barriers live here. Hello answers are
// held until every worker has said hello, so each carries every peer's
// address and no worker pulls from a peer that has none yet. Result
// answers are held until every worker has reported, so no fragment
// server disappears while a recovering peer might still re-pull.
type coordinator struct {
	p       int
	lineCap int      // ctrlLineCap of the run's program
	shares  [][]byte // worker i's share of the input, encoded: every hello of i is answered with it
	ln      *net.TCPListener

	mu      sync.Mutex
	cond    *sync.Cond
	addrs   []string // worker i's data address, its last hello's
	greeted []bool   // whether worker i has said hello
	hellos  int      // workers that have said hello, each counted once
	results map[int]workerResult
	failed  error
}

// newCoordinator is the control-plane state of a run of a rounds-round
// program whose worker i starts from shares[i]; listen opens it to the
// workers.
func newCoordinator(shares [][]byte, rounds int) *coordinator {
	p := len(shares)
	c := &coordinator{p: p, lineCap: ctrlLineCap(rounds), shares: shares, addrs: make([]string, p), greeted: make([]bool, p), results: make(map[int]workerResult)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *coordinator) listen() error {
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return fmt.Errorf("mpcnet: opening coordinator: %w", err)
	}
	c.ln = ln
	// The accept loop lives as long as the run, not one round; its join
	// is the listener close in coordinator.close.
	go c.acceptLoop() //lint:allow goroutine-hygiene run-scoped accept loop, joined by closing the listener
	return nil
}

func (c *coordinator) addr() string { return c.ln.Addr().String() }

func (c *coordinator) close() {
	c.ln.Close() //lint:allow error-discard shutdown path; the accept loop exits on the close error
	c.mu.Lock()
	if c.failed == nil {
		c.failed = fmt.Errorf("mpcnet: coordinator closed")
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// fail aborts the run: held hellos and results release with an error
// so blocked workers exit instead of hanging.
func (c *coordinator) fail(err error) {
	c.mu.Lock()
	if c.failed == nil {
		c.failed = err
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

func (c *coordinator) acceptLoop() {
	for {
		conn, err := c.ln.AcceptTCP()
		if err != nil {
			return // listener closed: run is over
		}
		// One goroutine per request; bounded by the connection deadline
		// plus the result barrier, which fail/close always releases.
		go c.serve(conn) //lint:allow goroutine-hygiene request handler bounded by connection deadline and barrier release
	}
}

func (c *coordinator) serve(conn net.Conn) {
	defer conn.Close() // one request per connection; close is best-effort
	if err := conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return
	}
	rd := bufio.NewReaderSize(conn, c.lineCap)
	var req ctrlRequest
	if err := readLine(rd, &req); err != nil {
		return // over-long or malformed request: drop, the worker retries
	}
	resp, share := c.handle(req, rd)
	// A barrier may have held this connection past the read deadline;
	// re-arm before responding.
	if err := conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return
	}
	_ = writeMessage(conn, resp, req.Index, share) //lint:allow error-discard failed response: the worker's read errors and it retries
}

// handle answers req, whose line has been read from body; a result's
// fragment frame is read from body next. A hello's answer returns the
// worker's share, to follow the response line. The first hello of every
// worker, and every result, waits at its barrier.
func (c *coordinator) handle(req ctrlRequest, body io.Reader) (ctrlResponse, []byte) {
	if req.Index < 0 || req.Index >= c.p {
		return ctrlResponse{Err: fmt.Sprintf("worker index %d outside 0..%d", req.Index, c.p-1)}, nil
	}
	switch req.Op {
	case "hello":
		c.mu.Lock()
		c.addrs[req.Index] = req.Addr
		if !c.greeted[req.Index] {
			c.greeted[req.Index] = true
			c.hellos++
			c.cond.Broadcast()
		}
		// Barrier: hold the answer until the whole cluster said hello (or
		// the run failed), so it carries every peer's address. A respawn's
		// hello comes after it and is answered at once.
		for c.hellos < c.p && c.failed == nil {
			c.cond.Wait()
		}
		failed, addrs := c.failed, slices.Clone(c.addrs)
		c.mu.Unlock()
		if failed != nil {
			return ctrlResponse{Err: failed.Error()}, nil
		}
		return ctrlResponse{OK: true, Addrs: addrs}, c.shares[req.Index]
	case "lookup":
		if req.Peer < 0 || req.Peer >= c.p {
			return ctrlResponse{Err: fmt.Sprintf("peer index %d outside 0..%d", req.Peer, c.p-1)}, nil
		}
		c.mu.Lock()
		addr := c.addrs[req.Peer]
		c.mu.Unlock()
		return ctrlResponse{OK: true, Addr: addr}, nil
	case "result":
		payload, err := readFragment(body, req.Index)
		if err != nil {
			return ctrlResponse{Err: fmt.Sprintf("unreadable fragment frame: %v", err)}, nil
		}
		frag, err := rel.DecodeInstance(payload)
		if err != nil {
			return ctrlResponse{Err: fmt.Sprintf("undecodable fragment: %v", err)}, nil
		}
		c.mu.Lock()
		// A respawned worker may re-report; determinism makes the copies
		// identical, so last-write-wins is safe.
		c.results[req.Index] = workerResult{received: req.Received, deltaSent: req.DeltaSent, fragment: frag}
		c.cond.Broadcast()
		// Barrier: hold the response until the whole cluster reported (or
		// the run failed), so this worker keeps serving re-pulls.
		for len(c.results) < c.p && c.failed == nil {
			c.cond.Wait()
		}
		failed := c.failed
		c.mu.Unlock()
		if failed != nil {
			return ctrlResponse{Err: failed.Error()}, nil
		}
		return ctrlResponse{OK: true}, nil
	default:
		return ctrlResponse{Err: fmt.Sprintf("unknown op %q", req.Op)}, nil
	}
}

// awaitResults blocks until all p results are in or the run failed.
func (c *coordinator) awaitResults() (map[int]workerResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.results) < c.p && c.failed == nil {
		c.cond.Wait()
	}
	if c.failed != nil {
		return nil, c.failed
	}
	return c.results, nil
}

// maxRespawns bounds recovery: a worker that keeps dying after this
// many fresh incarnations (beyond the armed failpoint) fails the run.
const maxRespawns = 3

// Run coordinates a full distributed execution: spawn one worker per
// server, respawn any that die (the failpoint respawn carries no
// failpoint, so the recovered incarnation runs to completion), collect
// every worker's result, and assemble the run's observables. There is
// no wall-clock timeout here: liveness comes from the workers' socket
// deadlines and bounded pull retries — a wedged run surfaces as worker
// errors, which exhaust the respawn budget and fail the run.
func Run(cfg RunConfig) (*RunResult, error) {
	if cfg.Spawn == nil {
		return nil, fmt.Errorf("mpcnet: run needs a spawner")
	}
	built, err := Build(cfg.Spec)
	if err != nil {
		return nil, err
	}
	p := built.P

	coord := newCoordinator(deal(built.Input, p), len(built.Rounds))
	if err := coord.listen(); err != nil {
		return nil, err
	}
	defer coord.close()

	var respawnMu sync.Mutex
	respawns := 0
	procs := make([]Process, p)
	var monitors sync.WaitGroup
	for i := 0; i < p; i++ {
		wcfg := WorkerConfig{
			Index:     i,
			Spec:      cfg.Spec,
			CoordAddr: coord.addr(),
			CkptDir:   cfg.CkptDir,
			FailRound: -1,
		}
		if cfg.FailWorker == i {
			wcfg.FailRound = cfg.FailRound
		}
		proc, err := cfg.Spawn(wcfg)
		if err != nil {
			coord.fail(fmt.Errorf("mpcnet: spawning worker %d: %w", i, err))
			break
		}
		procs[i] = proc
		monitors.Add(1)
		go func(i int, proc Process, wcfg WorkerConfig) {
			defer monitors.Done()
			for attempt := 0; ; attempt++ {
				err := proc.Wait()
				coord.mu.Lock()
				_, reported := coord.results[i]
				done := len(coord.results) == coord.p || coord.failed != nil
				coord.mu.Unlock()
				if done {
					return
				}
				if err == nil {
					if !reported {
						coord.fail(fmt.Errorf("mpcnet: worker %d exited cleanly without reporting a result", i))
					}
					return
				}
				if attempt >= maxRespawns {
					coord.fail(fmt.Errorf("mpcnet: worker %d died %d times, giving up: %w", i, attempt+1, err))
					return
				}
				// Recovery path: a fresh incarnation, never re-armed with the
				// failpoint, resumes from its checkpoints.
				wcfg.FailRound = -1
				respawnMu.Lock()
				respawns++
				respawnMu.Unlock()
				next, spawnErr := cfg.Spawn(wcfg)
				if spawnErr != nil {
					coord.fail(fmt.Errorf("mpcnet: respawning worker %d: %w", i, spawnErr))
					return
				}
				procs[i] = next
				proc = next
			}
		}(i, proc, wcfg)
	}

	results, err := coord.awaitResults()
	if err != nil {
		for _, proc := range procs {
			if proc != nil {
				proc.Kill()
			}
		}
		monitors.Wait()
		return nil, err
	}
	monitors.Wait()

	res, err := assemble(built, results)
	if err != nil {
		return nil, err
	}
	respawnMu.Lock()
	res.Respawns = respawns
	respawnMu.Unlock()
	return res, nil
}

// deal is the run's initial placement, made once: the simulator's
// round-robin rule (mpc.DealRoundRobin, what LoadRoundRobin performs)
// over the whole input, server i's share encoded for the hello that
// hands it to every incarnation of worker i. rel.EncodeRoundRobin is
// that rule's encoding: it writes each share straight from the input's
// sorted enumeration, byte-equal to encoding the instances the rule
// would fill, without building them. Placement is not communication —
// the model's input starts out spread — so no count of it enters the
// accounting.
func deal(input *rel.Instance, p int) [][]byte { return rel.EncodeRoundRobin(input, p) }

// assemble reconstructs the simulator's observables from the workers'
// reports: per-round stats rows (and from them the logical trace and
// cost metrics) plus the output union of the final fragments.
func assemble(built *Built, results map[int]workerResult) (*RunResult, error) {
	p := built.P
	nRounds := len(built.Rounds)
	for i := 0; i < p; i++ {
		r, ok := results[i]
		if !ok {
			return nil, fmt.Errorf("mpcnet: no result from worker %d", i)
		}
		if len(r.received) != nRounds || len(r.deltaSent) != nRounds {
			return nil, fmt.Errorf("mpcnet: worker %d reported %d/%d rounds of accounting, want %d",
				i, len(r.received), len(r.deltaSent), nRounds)
		}
	}

	res := &RunResult{Result: core.Result{Output: rel.NewInstance(), Rounds: nRounds}, Fragments: make([]*rel.Instance, p)}
	for i := 0; i < p; i++ {
		res.Fragments[i] = results[i].fragment
		res.Output.AddAll(results[i].fragment)
	}
	trace := make([]byte, 0, nRounds*64)
	for r := 0; r < nRounds; r++ {
		stats := mpc.RoundStats{Name: built.Rounds[r].Name, Received: make([]int, p)}
		for i := 0; i < p; i++ {
			n := results[i].received[r]
			stats.Received[i] = n
			stats.TotalComm += n
			if n > stats.MaxLoad {
				stats.MaxLoad = n
			}
			stats.DeltaComm += results[i].deltaSent[r]
		}
		trace = append(trace, stats.LogicalString()...)
		trace = append(trace, '\n')
		res.TotalComm += stats.TotalComm
		res.DeltaComm += stats.DeltaComm
		if stats.MaxLoad > res.MaxLoad {
			res.MaxLoad = stats.MaxLoad
		}
	}
	res.Trace = string(trace)
	return res, nil
}

// RunLocal executes the spec on the in-process simulator (mpc.Simulate,
// what core.Execute runs a plan on) — the reference the distributed run
// must match byte for byte.
func RunLocal(spec ProgramSpec) (*RunResult, error) {
	built, err := Build(spec)
	if err != nil {
		return nil, err
	}
	c, err := mpc.Simulate(built.Rounds, built.P, built.Input)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Result: core.Profile(c), Fragments: make([]*rel.Instance, built.P)}
	for i := range res.Fragments {
		res.Fragments[i] = c.Server(i)
	}
	return res, nil
}
