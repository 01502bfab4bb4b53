package mpcnet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpclogic/internal/core"
	"mpclogic/internal/cq"
	"mpclogic/internal/gym"
	"mpclogic/internal/mapreduce"
	"mpclogic/internal/mpc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// goProc runs one worker as a goroutine in this process — the
// in-process stand-in for a worker OS process. Kill is a no-op: the
// goroutine unwinds on its own when the coordinator fails the run and
// its socket operations start erroring.
type goProc struct {
	done chan struct{}
	err  error
}

func (p *goProc) Wait() error {
	<-p.done
	return p.err
}

func (p *goProc) Kill() {}

// goSpawner runs workers as goroutines. Only usable with the
// failpoint disabled — an in-process SIGKILL would take the test
// runner down with it; the real crash path is exercised by the
// cmd/mpcrun e2e test, which spawns actual processes.
func goSpawner(cfg WorkerConfig) (Process, error) {
	if cfg.FailRound >= 0 {
		return nil, fmt.Errorf("goroutine workers cannot arm a SIGKILL failpoint")
	}
	p := &goProc{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.err = RunWorker(cfg)
	}()
	return p, nil
}

// specMatrix is the program matrix the distributed runtime is proven
// on: every Build-able program, at small sizes that still route real
// communication on every round.
func specMatrix() []ProgramSpec {
	return []ProgramSpec{
		{Program: "tc", P: 3, M: 10, Seed: 7},
		{Program: "cascade", P: 4, M: 24, Seed: 11},
		{Program: "hypercube", P: 4, M: 24, Seed: 17},
		{Program: "yannakakis", P: 3, M: 30, Seed: 42},
		{Program: "gym", P: 4, M: 24, Seed: 3},
	}
}

// assertMatchesLocal holds a distributed run to the simulator's: output,
// per-server fragments, logical trace and cost metrics, byte for byte.
func assertMatchesLocal(t *testing.T, got, want *RunResult) {
	t.Helper()
	if g, w := got.Output.String(), want.Output.String(); g != w {
		t.Errorf("distributed output diverged:\n got %s\nwant %s", g, w)
	}
	if len(got.Fragments) != len(want.Fragments) {
		t.Fatalf("fragment count %d, want %d", len(got.Fragments), len(want.Fragments))
	}
	for i := range want.Fragments {
		if !got.Fragments[i].Equal(want.Fragments[i]) {
			t.Errorf("worker %d final fragment diverged from server %d", i, i)
		}
	}
	if got.Trace != want.Trace {
		t.Errorf("distributed logical trace diverged:\n got %q\nwant %q", got.Trace, want.Trace)
	}
	if got.MaxLoad != want.MaxLoad || got.TotalComm != want.TotalComm ||
		got.DeltaComm != want.DeltaComm || got.Rounds != want.Rounds {
		t.Errorf("distributed cost metrics diverged: maxload %d/%d, total %d/%d, delta %d/%d, rounds %d/%d",
			got.MaxLoad, want.MaxLoad, got.TotalComm, want.TotalComm,
			got.DeltaComm, want.DeltaComm, got.Rounds, want.Rounds)
	}
}

// TestDistributedMatchesLocal is the process-level half of the
// tentpole invariant: a program executed by one worker per server —
// real fragment servers, real pulls over loopback sockets, per-round
// checkpoints on disk — produces byte-identical output, per-server
// fragments, and logical trace to the in-process simulator.
func TestDistributedMatchesLocal(t *testing.T) {
	for _, spec := range specMatrix() {
		spec := spec
		t.Run(spec.Program, func(t *testing.T) {
			t.Parallel()
			want, err := RunLocal(spec)
			if err != nil {
				t.Fatalf("local reference: %v", err)
			}
			got, err := Run(RunConfig{
				Spec:       spec,
				CkptDir:    t.TempDir(),
				FailWorker: -1,
				FailRound:  -1,
				Spawn:      goSpawner,
			})
			if err != nil {
				t.Fatalf("distributed run: %v", err)
			}
			assertMatchesLocal(t, got, want)
			if got.Respawns != 0 {
				t.Errorf("fault-free run recorded %d respawns", got.Respawns)
			}
		})
	}
}

// central is the answer no cluster computed: the query's, or — on the
// graph, the input of no query — the transitive closure.
func central(q *cq.CQ, input *rel.Instance) *rel.Instance {
	if q == nil {
		return mapreduce.SemiNaiveClosure(input, "E")
	}
	return cq.Output(q, input)
}

// TestPlanMatrixAcrossExecutors is the one matrix behind "one plan,
// three executors": every (workload, algorithm, wcoj) triple — the
// workload table × core's menu and a name it does not have — at three
// widths, either runs identically — output, logical trace and cost — on
// core.Execute, RunLocal and Run over goroutine workers, with the
// answer the central evaluation gives, or is rejected by all three with
// core's one typed error; and which of the two is what the plan's row
// said before anything ran.
func TestPlanMatrixAcrossExecutors(t *testing.T) {
	algos := []core.Algorithm{"bogus"}
	for _, row := range core.Menu {
		algos = append(algos, row.Name)
	}
	accepted := 0
	for _, wl := range []string{"triangle", "chain", "join", "graph"} {
		w, err := WorkloadFor(wl, "")
		if err != nil {
			t.Fatal(err)
		}
		q, err := w.CQ()
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range algos {
			for _, wcoj := range []bool{false, true} {
				for _, p := range []int{3, 4, 8} {
					spec := ProgramSpec{Program: string(algo), P: p, M: 18, Seed: 5, Workload: wl, Skew: 0.25, WCOJ: wcoj}
					name := fmt.Sprintf("%s/%s/wcoj=%v/p=%d", wl, algo, wcoj, p)
					input := w.gen(spec)
					plan := &core.Plan{Algorithm: algo, Query: q, Servers: p, Seed: spec.Seed, WCOJ: wcoj}
					sim, simErr := core.Execute(plan, input)
					if _, rowErr := plan.Row(); (rowErr == nil) != (simErr == nil) {
						t.Errorf("%s: the menu says %v, core.Execute %v", name, rowErr, simErr)
					}
					if simErr != nil {
						_, localErr := RunLocal(spec)
						_, netErr := Run(RunConfig{Spec: spec, FailWorker: -1, FailRound: -1, Spawn: goSpawner})
						for executor, err := range map[string]error{"Execute": simErr, "RunLocal": localErr, "Run": netErr} {
							var pe *core.PlanError
							if !errors.As(err, &pe) || pe.Algorithm != algo {
								t.Errorf("%s: %s rejected with %v, want a core.PlanError for %s", name, executor, err, algo)
							}
						}
						continue
					}
					accepted++
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						local, err := RunLocal(spec)
						if err != nil {
							t.Fatalf("RunLocal: %v", err)
						}
						got, err := Run(RunConfig{Spec: spec, CkptDir: t.TempDir(), FailWorker: -1, FailRound: -1, Spawn: goSpawner})
						if err != nil {
							t.Fatalf("Run: %v", err)
						}
						assertMatchesLocal(t, got, local)
						if !sim.Output.Equal(local.Output) || sim.Trace != local.Trace || sim.Rounds != local.Rounds ||
							sim.MaxLoad != local.MaxLoad || sim.TotalComm != local.TotalComm {
							t.Errorf("core.Execute diverged from RunLocal:\n got %s\n%s\nwant %s\n%s", sim.Output, sim.Trace, local.Output, local.Trace)
						}
						want := central(q, input)
						answers := local.Output.Filter(func(f rel.Fact) bool { return want.Relation(f.Rel) != nil })
						if !answers.Equal(want) {
							t.Errorf("distributed answer has %d facts, central evaluation %d", answers.Len(), want.Len())
						}
					})
				}
			}
		}
	}
	// 15 triples: hypercube on every query with either engine, gym on
	// every query, yannakakis on the two acyclic ones, repartition and
	// grouping on the binary join, cascade on the triangle, tc on the
	// graph.
	if want := 15 * 3; accepted != want {
		t.Errorf("the plan accepted %d (triple, p) cells, want %d", accepted, want)
	}
}

// TestSpecJSONRoundTrip: the spec is the plan's wire form — what a
// worker decodes from its command line must elaborate to what the
// coordinator built, and the fields a PR-15 spec did not have stay off
// the wire when unset.
func TestSpecJSONRoundTrip(t *testing.T) {
	specs := append(specMatrix(),
		ProgramSpec{Program: "grouping", P: 9, M: 20, Seed: 2, Workload: "join", Skew: 0.5},
		ProgramSpec{Program: "hypercube", P: 8, M: 20, Seed: 2, Workload: "chain", WCOJ: true})
	for _, spec := range specs {
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Workload == "" && string(enc) != fmt.Sprintf(`{"program":%q,"p":%d,"m":%d,"seed":%d}`, spec.Program, spec.P, spec.M, spec.Seed) {
			t.Errorf("zero-valued fields on the wire: %s", enc)
		}
		var back ProgramSpec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatal(err)
		}
		if back != spec {
			t.Fatalf("spec %+v came back as %+v", spec, back)
		}
		a, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(back)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := mpc.Simulate(a.Rounds, a.P, a.Input)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := mpc.Simulate(b.Rounds, b.P, b.Input)
		if err != nil {
			t.Fatal(err)
		}
		if a.P != b.P || !a.Input.Equal(b.Input) ||
			ra.LogicalTrace() != rb.LogicalTrace() || !ra.Output().Equal(rb.Output()) {
			t.Errorf("%+v: the decoded spec built a different program", spec)
		}
	}
}

// TestWorkerSliceMatchesRoundRobin pins the initial-placement
// agreement: the share the coordinator's hello hands worker i must be
// exactly what LoadRoundRobin puts on server i, or the distributed run
// starts from a different instance than the simulator.
func TestWorkerSliceMatchesRoundRobin(t *testing.T) {
	for _, spec := range specMatrix() {
		built, err := Build(spec)
		if err != nil {
			t.Fatalf("build %s: %v", spec.Program, err)
		}
		coord := newCoordinator(deal(built.Input, built.P), len(built.Rounds))
		if err := coord.listen(); err != nil {
			t.Fatal(err)
		}
		c := mpc.NewCluster(built.P)
		c.LoadRoundRobin(built.Input)
		for i := 0; i < built.P; i++ {
			_, share, err := roundtrip(coord.addr(), ctrlRequest{Op: "hello", Index: i, Addr: "127.0.0.1:1"}, nil)
			if err != nil {
				t.Fatalf("%s: hello of worker %d: %v", spec.Program, i, err)
			}
			if got, err := rel.DecodeInstance(share); err != nil || !got.Equal(c.Server(i)) {
				t.Errorf("%s: hello hands worker %d a share (err %v) that differs from LoadRoundRobin server %d", spec.Program, i, err, i)
			}
		}
		coord.close()
	}
}

// errKilled is what a crashSpawner incarnation's Wait reports when
// crash ended it.
var errKilled = errors.New("worker killed at its failpoint")

// crashSpawner is goSpawner with the failpoint armed as asked: with
// crash set to runtime.Goexit, an armed worker's goroutine ends right
// after its checkpoint, as its process would, and Wait reports it
// killed.
func crashSpawner(cfg WorkerConfig) (Process, error) {
	p := &goProc{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.err = errKilled // stands unless RunWorker returns
		p.err = RunWorker(cfg)
	}()
	return p, nil
}

// countGenerations wraps the generator of spec's workload row with a
// counter until the test ends.
func countGenerations(t *testing.T, spec ProgramSpec) *atomic.Int64 {
	t.Helper()
	w, err := WorkloadFor(spec.Workload, spec.Program)
	if err != nil {
		t.Fatal(err)
	}
	gen, n := w.gen, new(atomic.Int64)
	w.gen = func(s ProgramSpec) *rel.Instance {
		n.Add(1)
		return gen(s)
	}
	t.Cleanup(func() { w.gen = gen })
	return n
}

// TestWorkerHoldsOnlyItsShare: the coordinator generates the workload,
// once, and deals it; a worker starts from its share. A fault-free
// hypercube run at p = 4 generates once (the coordinator), a worker
// killed after its round-0 checkpoint and respawned adds nothing, and
// tc — the one row of core's menu whose program reads its input —
// generates once more per worker incarnation. Each run still equals the
// simulator's.
func TestWorkerHoldsOnlyItsShare(t *testing.T) {
	defer func(c func()) { crash = c }(crash)
	crash = runtime.Goexit
	hypercube := ProgramSpec{Program: "hypercube", P: 4, M: 24, Seed: 17}
	tc := ProgramSpec{Program: "tc", P: 3, M: 10, Seed: 7}
	for _, c := range []struct {
		name       string
		spec       ProgramSpec
		failWorker int
		want       int64
	}{
		{"hypercube", hypercube, -1, 1},
		{"hypercube/kill", hypercube, 1, 1},
		{"tc", tc, -1, 1 + 3},
		{"tc/kill", tc, 1, 1 + 3 + 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := RunLocal(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			generated := countGenerations(t, c.spec)
			got, err := Run(RunConfig{Spec: c.spec, CkptDir: t.TempDir(), FailWorker: c.failWorker, FailRound: 0, Spawn: crashSpawner})
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesLocal(t, got, want)
			if killed := c.failWorker >= 0; (got.Respawns == 1) != killed {
				t.Errorf("%d respawns, want one exactly when a worker is killed", got.Respawns)
			}
			if n := generated.Load(); n != c.want {
				t.Errorf("the workload was generated %d times, want %d", n, c.want)
			}
		})
	}
}

// TestBuildDeterministic: two Builds of the same spec must agree on
// everything observable — the property the whole runtime rests on.
func TestBuildDeterministic(t *testing.T) {
	for _, spec := range specMatrix() {
		a, err := Build(spec)
		if err != nil {
			t.Fatalf("build %s: %v", spec.Program, err)
		}
		b, err := Build(spec)
		if err != nil {
			t.Fatalf("rebuild %s: %v", spec.Program, err)
		}
		if a.P != b.P || len(a.Rounds) != len(b.Rounds) {
			t.Fatalf("%s: builds disagree on shape: p %d/%d, rounds %d/%d",
				spec.Program, a.P, b.P, len(a.Rounds), len(b.Rounds))
		}
		if !a.Input.Equal(b.Input) {
			t.Errorf("%s: builds disagree on the input instance", spec.Program)
		}
		for i := range a.Rounds {
			if a.Rounds[i].Name != b.Rounds[i].Name {
				t.Errorf("%s: round %d named %q then %q", spec.Program, i, a.Rounds[i].Name, b.Rounds[i].Name)
			}
		}
	}
}

func TestBuildRejects(t *testing.T) {
	// An unknown name is refused naming every row of the menu.
	_, err := Build(ProgramSpec{Program: "bogus", P: 2, M: 10, Seed: 1})
	var pe *core.PlanError
	if !errors.As(err, &pe) {
		t.Fatalf("Build of an unknown program: %v, want a core.PlanError", err)
	}
	for _, row := range core.Menu {
		if !strings.Contains(err.Error(), string(row.Name)) {
			t.Errorf("the refusal %q does not name %s", err, row.Name)
		}
	}
	cases := []ProgramSpec{
		{Program: "nope", P: 2, M: 10, Seed: 1},
		{Program: "tc", P: 0, M: 10, Seed: 1},
		{Program: "tc", P: 2, M: 0, Seed: 1},
		{Program: "tc", P: 2, M: 10, Seed: 1, Workload: "triangle"},
		{Program: "tc", P: 2, M: 10, Seed: 1, WCOJ: true},
		{Program: "cascade", P: 4, M: 10, Seed: 1, Workload: "join"},
		{Program: "hypercube", P: 4, M: 10, Seed: 1, Workload: "graph"},
		{Program: "gym", P: 4, M: 10, Seed: 1, Workload: "nope"},
	}
	for _, spec := range cases {
		if _, err := Build(spec); err == nil {
			t.Errorf("Build(%+v) accepted an invalid spec", spec)
		}
	}
}

// slotRounds lists the rounds worker index's checkpoint files in dir
// hold, ascending, read from each image's cursor; more than the two
// slots' files is a failure.
func slotRounds(t *testing.T, dir string, index int) []int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("worker-%d.*", index)))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > 2 {
		t.Errorf("worker %d has %d checkpoint files %v, want at most its two slots", index, len(files), files)
	}
	var rounds []int
	for _, f := range files {
		cur, _, err := readCheckpoint(f)
		if err != nil {
			t.Fatalf("checkpoint file does not load: %v", err)
		}
		rounds = append(rounds, cur.Round)
	}
	sort.Ints(rounds)
	return rounds
}

// TestCheckpointRoundtrip pins the durable state: write, read back, and
// recover the exact state and accounting from the slot resume rewinds
// to (latest−1); another worker's files are not this worker's, and a
// worker with no files starts fresh.
func TestCheckpointRoundtrip(t *testing.T) {
	dir := t.TempDir()
	state := rel.NewInstance()
	state.Add(rel.NewFact("E", 1, 2))
	state.Add(rel.NewFact("TC", 2, 3))
	received := []int{4, 0, 7}
	deltaSent := []int{1, 0, 2}
	for r := 0; r <= 3; r++ {
		if err := writeCheckpoint(dir, 2, cursor{Round: r, Received: received[:r], DeltaSent: deltaSent[:r]}, state); err != nil {
			t.Fatalf("write round %d: %v", r, err)
		}
	}
	if err := writeCheckpoint(dir, 1, cursor{Round: 9}, rel.NewInstance()); err != nil {
		t.Fatal(err)
	}

	cur, recovered, err := resumeCheckpoint(dir, 2)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if cur.Round != 2 {
		t.Errorf("resuming at round %d, want 2 (latest−1)", cur.Round)
	}
	if !recovered.Equal(state) {
		t.Errorf("recovered state %v, want %v", recovered, state)
	}
	if fmt.Sprint(cur.Received, cur.DeltaSent) != fmt.Sprint(received[:2], deltaSent[:2]) {
		t.Errorf("recovered accounting %v/%v, want %v/%v", cur.Received, cur.DeltaSent, received[:2], deltaSent[:2])
	}
	if cur, _, err := resumeCheckpoint(dir, 0); cur != nil || err != nil {
		t.Errorf("a worker without checkpoints resumes at %+v (err %v), want a fresh start", cur, err)
	}
}

// TestCheckpointSlots is retention by construction: after the write of
// every round r the worker holds exactly rounds {r−1, r} in at most two
// files — nothing collects the older ones, the rename replaced them —
// resume rewinds to r−1, and another worker's slots are untouched.
func TestCheckpointSlots(t *testing.T) {
	dir := t.TempDir()
	state := rel.NewInstance()
	state.Add(rel.NewFact("E", 1, 2))
	if err := writeCheckpoint(dir, 1, cursor{Round: 0}, rel.NewInstance()); err != nil {
		t.Fatal(err)
	}
	for r := 0; r <= 5; r++ {
		if err := writeCheckpoint(dir, 0, cursor{Round: r, Received: make([]int, r), DeltaSent: make([]int, r)}, state); err != nil {
			t.Fatal(err)
		}
		want := []int{r - 1, r}
		if r == 0 {
			want = []int{0}
		}
		if got := slotRounds(t, dir, 0); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("after round %d's write the slots hold rounds %v, want %v", r, got, want)
		}
		cur, recovered, err := resumeCheckpoint(dir, 0)
		if err != nil {
			t.Fatalf("resume after round %d's write: %v", r, err)
		}
		if cur.Round != want[0] || !recovered.Equal(state) {
			t.Errorf("resume after round %d's write: round %d, state %v", r, cur.Round, recovered)
		}
	}
	if got := slotRounds(t, dir, 1); fmt.Sprint(got) != "[0]" {
		t.Errorf("another worker's slots now hold rounds %v, want [0]", got)
	}
}

// TestDistributedRunKeepsTwoSlots: a completed run of R rounds leaves
// each worker with exactly its two slots on disk, holding rounds
// {R−2, R−1} — the bounded footprint the slots promise — while the
// run's output still matches the simulator (checked by
// TestDistributedMatchesLocal; here we only pin the disk state).
func TestDistributedRunKeepsTwoSlots(t *testing.T) {
	spec := ProgramSpec{Program: "cascade", P: 4, M: 24, Seed: 11}
	dir := t.TempDir()
	if _, err := Run(RunConfig{Spec: spec, CkptDir: dir, FailWorker: -1, FailRound: -1, Spawn: goSpawner}); err != nil {
		t.Fatal(err)
	}
	built, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	last := len(built.Rounds) - 1
	for idx := 0; idx < built.P; idx++ {
		if got, want := slotRounds(t, dir, idx), []int{last - 1, last}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("worker %d retains rounds %v, want %v", idx, got, want)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2*built.P {
		t.Errorf("checkpoint directory holds %d entries (err %v), want %d", len(entries), err, 2*built.P)
	}
}

// TestTornFirstCheckpointRecovers: a crash between a checkpoint's write
// and its rename leaves the writer's temporary behind, under the name
// the parent format gave it or this one's. Neither is a checkpoint: the
// worker starts fresh and the run equals the simulator's. (Start-up
// used to count the first as round 0 and die on every respawn.)
func TestTornFirstCheckpointRecovers(t *testing.T) {
	spec := ProgramSpec{Program: "tc", P: 3, M: 10, Seed: 7}
	dir := t.TempDir()
	for _, torn := range []string{"worker-1-round-0.ckpt.tmp", filepath.Base(ckptPath(dir, 1, 0)) + policy.TempSuffix} {
		if err := os.WriteFile(filepath.Join(dir, torn), []byte(`{"round":0,"sta`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(RunConfig{Spec: spec, CkptDir: dir, FailWorker: -1, FailRound: -1, Spawn: goSpawner})
	if err != nil {
		t.Fatalf("distributed run over a torn temporary: %v", err)
	}
	assertMatchesLocal(t, got, want)
	if got.Respawns != 0 {
		t.Errorf("%d respawns: the torn temporary cost an incarnation", got.Respawns)
	}
}

// TestCheckpointBitFlipLaw: after a multi-round run, every single-bit
// mutation (fixed stride on large files, as FuzzStoreImage samples) of
// either slot of any worker makes that worker's resume an error — never
// a state — because cursor and fragment alike sit under the image's
// checksum. Undamaged, every worker resumes at the round before last.
func TestCheckpointBitFlipLaw(t *testing.T) {
	spec := ProgramSpec{Program: "tc", P: 3, M: 10, Seed: 7}
	dir := t.TempDir()
	res, err := Run(RunConfig{Spec: spec, CkptDir: dir, FailWorker: -1, FailRound: -1, Spawn: goSpawner})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 3 {
		t.Fatalf("%d rounds, want a multi-round run", res.Rounds)
	}
	for idx := 0; idx < spec.P; idx++ {
		if cur, _, err := resumeCheckpoint(dir, idx); err != nil || cur == nil || cur.Round != res.Rounds-2 {
			t.Fatalf("worker %d resumes at %+v (err %v), want round %d", idx, cur, err, res.Rounds-2)
		}
		for slot := 0; slot < 2; slot++ {
			path := ckptPath(dir, idx, slot)
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			stride := 1
			if nbits := len(img) * 8; nbits > 2048 {
				stride = nbits / 2048
			}
			for bitpos := 0; bitpos < len(img)*8; bitpos += stride {
				mut := append([]byte(nil), img...)
				mut[bitpos/8] ^= 1 << (bitpos % 8)
				if err := os.WriteFile(path, mut, 0o644); err != nil {
					t.Fatal(err)
				}
				if cur, _, err := resumeCheckpoint(dir, idx); err == nil {
					t.Fatalf("worker %d resumed at %+v from a slot %d with bit %d flipped", idx, cur, slot, bitpos)
				}
			}
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// tcStep is the tc program's step function, global when applied to a
// whole instance: every round of gym.TCProgram computes the same one.
func tcStep(state *rel.Instance) *rel.Instance {
	return gym.TCProgram(1, 0, state)[0].Compute(0, state)
}

// tcStepsNaive is the oracle the program's length is held to: run the
// round's own step function globally until an application changes
// nothing.
func tcStepsNaive(graph *rel.Instance) int {
	state := rel.NewInstance()
	state.AddAll(graph)
	for steps := 1; ; steps++ {
		next := tcStep(state)
		if next.Len() == state.Len() {
			return steps
		}
		state = next
	}
}

// TestTCStepsUnrollsToFixpoint: the unrolled program must actually
// reach the transitive closure — no round short of the fixpoint — and
// the semi-naive step count must equal the naive one on every graph
// shape: empty, no E at all, self-loops, cycles, paths, disconnected
// pieces, random.
func TestTCStepsUnrollsToFixpoint(t *testing.T) {
	spec := ProgramSpec{Program: "tc", P: 3, M: 10, Seed: 7}
	built, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	// One more global step must be a no-op.
	again := tcStep(res.Output)
	if again.Len() != res.Output.Len() {
		t.Errorf("program of %d rounds stopped short of the fixpoint", len(built.Rounds))
	}
	if tc := res.Output.Relation("TC"); tc == nil || tc.Len() == 0 {
		t.Errorf("transitive closure is empty")
	}

	edges := func(pairs ...[2]int) *rel.Instance {
		g := rel.NewInstance()
		for _, e := range pairs {
			g.Add(rel.NewFact("E", rel.Value(e[0]), rel.Value(e[1])))
		}
		return g
	}
	emptyE := rel.NewInstance()
	emptyE.EnsureRelation("E", 2)
	disconnected := workload.PathGraph(5)
	disconnected.AddAll(edges([2]int{100, 101}, [2]int{101, 100}, [2]int{200, 200}))
	graphs := map[string]*rel.Instance{
		"no-E":         rel.NewInstance(),
		"empty-E":      emptyE,
		"one-edge":     edges([2]int{1, 2}),
		"self-loop":    edges([2]int{1, 1}),
		"loops+edge":   edges([2]int{1, 1}, [2]int{1, 2}, [2]int{2, 2}),
		"two-cycle":    edges([2]int{1, 2}, [2]int{2, 1}),
		"cycle-7":      workload.CycleGraph(7),
		"path-9":       workload.PathGraph(9),
		"disconnected": disconnected,
	}
	for seed := int64(0); seed < 40; seed++ {
		n := 3 + int(seed%11)
		m := 1 + int(seed*7%int64(n*(n-1)/2))
		graphs[fmt.Sprintf("random-n%d-m%d-seed%d", n, m, seed)] = workload.RandomGraph(n, m, seed)
	}
	for name, g := range graphs {
		if got, want := len(gym.TCProgram(3, 7, g)), tcStepsNaive(g); got != want {
			t.Errorf("%s: the program unrolls to %d rounds, the naive iteration takes %d", name, got, want)
		}
	}
}

// twelveRoundTC is a tc spec at p = 4 that unrolls to exactly 12 rounds
// of real communication — the multi-round shape where the per-round
// fixed cost, not the facts, decides the run time.
func twelveRoundTC(tb testing.TB) ProgramSpec {
	tb.Helper()
	spec := ProgramSpec{Program: "tc", P: 4, M: 64}
	for spec.Seed = 1; spec.Seed < 1024; spec.Seed++ {
		built, err := Build(spec)
		if err != nil {
			tb.Fatal(err)
		}
		if len(built.Rounds) == 12 {
			return spec
		}
	}
	tb.Fatal("no tc graph of depth 12 among the first 1024 seeds")
	return spec
}

// lookupCounter stands in front of a run's coordinator and counts the
// lookups it answers with an address. A stream asks once per dial, and
// dials on an answer, so the count is the run's data-plane dials. (A
// lookup answered "not registered yet" — a worker racing ahead of a
// peer's hello at start-up — is a poll, not a dial, and is not counted.)
type lookupCounter struct {
	coord    atomic.Value // string: the current run's real coordinator, learned at each spawn
	answered atomic.Int64
}

// countLookups wraps spawn so every worker talks to its coordinator
// through a counting relay; stop closes the relay and joins it. Runs
// through one counter must not overlap.
func countLookups(tb testing.TB, spawn Spawner) (counted Spawner, lc *lookupCounter, stop func()) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	lc = &lookupCounter{}
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		var relays sync.WaitGroup
		defer relays.Wait()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			relays.Add(1)
			go func() {
				defer relays.Done()
				lc.relay(conn)
			}()
		}
	}()
	counted = func(cfg WorkerConfig) (Process, error) {
		lc.coord.Store(cfg.CoordAddr)
		cfg.CoordAddr = ln.Addr().String()
		return spawn(cfg)
	}
	return counted, lc, func() {
		ln.Close()
		<-accepting
	}
}

// relay forwards one request line to the coordinator and its response
// line back, counting an answered lookup on the way, and the fragment
// frame that follows either line (a result's, a hello's answer's) as it
// arrives.
func (lc *lookupCounter) relay(conn net.Conn) {
	defer conn.Close()
	rd := bufio.NewReader(conn)
	line, err := rd.ReadBytes('\n')
	if err != nil {
		return
	}
	up, err := net.Dial("tcp", lc.coord.Load().(string))
	if err != nil {
		return
	}
	defer up.Close()
	if _, err := up.Write(line); err != nil {
		return
	}
	forwarded := make(chan struct{})
	go func() {
		defer close(forwarded)
		io.Copy(up, rd) // until the worker hangs up, or the close below
	}()
	defer func() {
		conn.Close()
		<-forwarded
	}()
	upRd := bufio.NewReader(up)
	answer, err := upRd.ReadBytes('\n')
	if err != nil {
		return
	}
	var req ctrlRequest
	var resp ctrlResponse
	if json.Unmarshal(line, &req) == nil && json.Unmarshal(answer, &resp) == nil && req.Op == "lookup" && resp.Addr != "" {
		lc.answered.Add(1)
	}
	conn.Write(answer)
	io.Copy(conn, upRd) // until the coordinator hangs up
}

// TestRunDialsEachPeerOnce: a fault-free 12-round run at p = 4 costs
// p(p−1) = 12 answered lookups — one per stream, for the whole run, not
// one per pull (which would be 144) — and still matches the simulator.
func TestRunDialsEachPeerOnce(t *testing.T) {
	spec := twelveRoundTC(t)
	want, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	spawn, lookups, stop := countLookups(t, goSpawner)
	got, err := Run(RunConfig{Spec: spec, CkptDir: t.TempDir(), FailWorker: -1, FailRound: -1, Spawn: spawn})
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != 12 || got.Trace != want.Trace || got.Output.String() != want.Output.String() {
		t.Errorf("run through the counting relay diverged from the simulator (%d rounds)", got.Rounds)
	}
	if n := lookups.answered.Load(); n != 12 {
		t.Errorf("coordinator answered %d lookups over %d rounds, want 12: one dial per peer per run", n, got.Rounds)
	}
}

// TestResultBarrierOutlastsIOBound: a worker whose slowest peer reports
// several I/O bounds after it did is still waiting at the barrier, and
// both are released together — being slow is not being broken.
func TestResultBarrierOutlastsIOBound(t *testing.T) {
	const bound = 100 * time.Millisecond // short, yet above a loaded host's stalls
	defer func(d time.Duration) { ioTimeout = d }(ioTimeout)
	ioTimeout = bound

	coord := newCoordinator(make([][]byte, 2), 0)
	if err := coord.listen(); err != nil {
		t.Fatal(err)
	}
	defer coord.close()
	report := func(index int) error {
		_, _, err := roundtrip(coord.addr(), ctrlRequest{Op: "result", Index: index}, rel.EncodeInstance(rel.NewInstance()))
		return err
	}
	early := make(chan error, 1)
	go func() { early <- report(0) }()
	time.Sleep(3 * bound)
	select {
	case err := <-early:
		t.Fatalf("first reporter left the barrier before the last one arrived (err %v)", err)
	default:
	}
	if err := report(1); err != nil {
		t.Errorf("last reporter: %v", err)
	}
	if err := <-early; err != nil {
		t.Errorf("first reporter, held 3 I/O bounds at the barrier: %v", err)
	}
}

// BenchmarkRunRounds is the 12-round tc run over goroutine workers, with
// and without checkpoints: the multi-round shape whose cost is per-round
// set-up. dials/op is the coordinator's answered lookups in one untimed
// run through the counting relay (the timed runs skip the relay).
func BenchmarkRunRounds(b *testing.B) {
	spec := twelveRoundTC(b)
	for _, ckpt := range []bool{true, false} {
		name := "ckpt"
		if !ckpt {
			name = "nockpt"
		}
		b.Run(name, func(b *testing.B) {
			run := func(spawn Spawner) {
				cfg := RunConfig{Spec: spec, FailWorker: -1, FailRound: -1, Spawn: spawn}
				if ckpt {
					cfg.CkptDir = b.TempDir()
				}
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds != 12 {
					b.Fatalf("%d rounds, want 12", res.Rounds)
				}
			}
			spawn, lookups, stop := countLookups(b, goSpawner)
			run(spawn)
			stop()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(goSpawner)
			}
			b.ReportMetric(float64(lookups.answered.Load()), "dials/op")
		})
	}
}

// BenchmarkRunBulk is one HyperCube round of 100 000 triangle facts over
// goroutine workers with checkpoints: the run where bytes, not rounds,
// decide the time — the deal, the wire codec, frames, the merge.
func BenchmarkRunBulk(b *testing.B) {
	spec := ProgramSpec{Program: "hypercube", P: 4, M: 20000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(RunConfig{Spec: spec, CkptDir: b.TempDir(), FailWorker: -1, FailRound: -1, Spawn: goSpawner})
		if err != nil {
			b.Fatal(err)
		}
		if res.Rounds != 1 {
			b.Fatalf("%d rounds, want 1", res.Rounds)
		}
	}
}
