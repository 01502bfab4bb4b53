package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mpclogic/internal/core"
	"mpclogic/internal/policy"
)

// mpcrunBin is the binary under test, built once in TestMain — the
// e2e suite drives real processes, not in-process calls: the
// coordinator is one OS process and every simulated server is
// another, so the tests cover the actual fork/exec/recover machinery
// users run.
var mpcrunBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mpcrun-e2e-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: temp dir: %v\n", err)
		os.Exit(1)
	}
	mpcrunBin = filepath.Join(dir, "mpcrun")
	if out, err := exec.Command("go", "build", "-o", mpcrunBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: building mpcrun: %v\n%s", err, out)
		os.RemoveAll(dir) // best-effort cleanup before exiting
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir) // best-effort cleanup before exiting
	os.Exit(code)
}

// runBin executes the built binary and returns stdout and stderr.
func runBin(t *testing.T, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(mpcrunBin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("mpcrun %v: %v\nstderr:\n%s", args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestE2ETransportEquivalence runs the same spec through -transport
// local (the in-process simulator) and -transport tcp (one forked
// worker process per server, fragments over loopback sockets) and
// diffs the reports verbatim: multi-round TC must be byte-identical
// across the process boundary.
func TestE2ETransportEquivalence(t *testing.T) {
	for _, p := range []int{2, 4} {
		p := p
		t.Run(fmt.Sprintf("tc/p=%d", p), func(t *testing.T) {
			t.Parallel()
			args := []string{"-algo", "tc", "-p", fmt.Sprint(p), "-m", "24", "-seed", "7"}
			want, _ := runBin(t, append([]string{"-transport", "local"}, args...)...)
			got, _ := runBin(t, append([]string{"-transport", "tcp"}, args...)...)
			if got != want {
				t.Errorf("tcp report diverged from local:\n got:\n%s\nwant:\n%s", got, want)
			}
			if !strings.Contains(want, "round tc-step-1:") {
				t.Errorf("program was not multi-round:\n%s", want)
			}
		})
	}
}

// TestE2EMergedMenuOverTCP: pairs only the simulator could run before
// the menus merged — a binary join under skew, the generic join inside
// the HyperCube round, an algorithm left to its home workload — cross
// the process boundary with the report intact.
func TestE2EMergedMenuOverTCP(t *testing.T) {
	for _, flags := range []string{
		"-workload join -skew 0.5 -algo grouping -p 4",
		"-workload triangle -algo hypercube -wcoj -p 8",
		"-algo yannakakis -p 3",
		"-workload join -skew 0.5 -p 9",
	} {
		flags := flags
		t.Run(flags, func(t *testing.T) {
			t.Parallel()
			args := append(strings.Fields(flags), "-m", "24")
			want, _ := runBin(t, args...)
			got, _ := runBin(t, append([]string{"-transport", "tcp"}, args...)...)
			if got != want {
				t.Errorf("tcp report diverged from local:\n got:\n%s\nwant:\n%s", got, want)
			}
			if !strings.Contains(want, "result:   ") || strings.Contains(want, "result:   0 output") {
				t.Errorf("the run answered nothing:\n%s", want)
			}
		})
	}
}

// TestE2EReportNamesTheClusterThatRan: HyperCube rounds p = 5 down to a
// 2·2·1 grid, and the plan line must say so rather than echo the flag.
func TestE2EReportNamesTheClusterThatRan(t *testing.T) {
	out, _ := runBin(t, "-algo", "hypercube", "-p", "5", "-m", "12")
	if !strings.Contains(out, "plan:     hypercube p=4 (of 5 requested)") || !strings.Contains(out, "received [") {
		t.Errorf("report does not name the four servers that ran:\n%s", out)
	}
	if out, _ := runBin(t, "-algo", "hypercube", "-p", "8", "-m", "12"); !strings.Contains(out, "plan:     hypercube p=8 —") {
		t.Errorf("a width HyperCube uses in full is reported with a qualifier:\n%s", out)
	}
}

// TestE2ERejectsBeforeAnythingRuns: a flag combination the plan cannot
// elaborate exits 2 with one line on stderr and nothing on stdout — no
// header for a run that never starts — under either transport; an
// unknown algorithm is answered with the whole menu.
func TestE2ERejectsBeforeAnythingRuns(t *testing.T) {
	cases := []string{"-algo tc -transport udp"}
	for _, flags := range []string{
		"-algo bogus",
		"-algo repartition -workload triangle",
		"-algo gym -wcoj",
		"-algo yannakakis -workload triangle",
		"-algo tc -workload join",
		"-algo tc -wcoj",
		"-algo cascade -workload join",
		"-algo cascade -wcoj",
		"-workload nope",
		"-workload graph",
	} {
		cases = append(cases, flags+" -transport local", flags+" -transport tcp")
	}
	for _, flags := range cases {
		args := strings.Fields(flags)
		cmd := exec.Command(mpcrunBin, append(args, "-m", "12", "-p", "4")...)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("mpcrun %v: %v, want exit status 2", args, err)
		}
		if stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("mpcrun %v: stdout %q, stderr %q; want no stdout and one line of stderr", args, stdout.String(), stderr.String())
		}
		if strings.Contains(flags, "bogus") && !strings.Contains(stderr.String(), core.Names()) {
			t.Errorf("mpcrun %v: stderr %q does not list the menu, %s", args, stderr.String(), core.Names())
		}
	}
}

// TestE2EKillRecovery is the crash test, at every round of the program:
// worker 1 SIGKILLs itself right after appending its round-r checkpoint,
// the coordinator respawns it, and the respawn recovers from the
// checkpoint by deterministic re-execution — rewinding one round, so
// its peers must still hold the round before the crash (the first
// round exercises the retention bound's lower end, the last its upper).
// The report must still be byte-identical to the in-process reference —
// a lost machine is invisible in every logical observable.
func TestE2EKillRecovery(t *testing.T) {
	args := []string{"-algo", "tc", "-p", "4", "-m", "24", "-seed", "7"}
	want, _ := runBin(t, append([]string{"-transport", "local"}, args...)...)
	rounds := strings.Count(want, "\nround ")
	if rounds < 3 {
		t.Fatalf("program has %d rounds, too few to kill at a first, a middle and a last one:\n%s", rounds, want)
	}
	for r := 0; r < rounds; r++ {
		r := r
		t.Run(fmt.Sprintf("round=%d", r), func(t *testing.T) {
			t.Parallel()
			ckpt := t.TempDir()
			got, stderr := runBin(t, append([]string{
				"-transport", "tcp", "-ckpt", ckpt, "-fail-worker", "1", "-fail-round", fmt.Sprint(r),
			}, args...)...)
			if got != want {
				t.Errorf("post-recovery report diverged from local:\n got:\n%s\nwant:\n%s", got, want)
			}
			// The crash must not have been vacuous: the coordinator really
			// respawned an incarnation.
			if !strings.Contains(stderr, "recovered 1 worker incarnation") {
				t.Errorf("no recovery happened (stderr: %q)", stderr)
			}
			// Checkpoints really were written and never pile up: whichever
			// round the failpoint armed on, the respawned worker ends with
			// at most its log's two files, whose newest rounds are the last
			// two (resume never rewinds past latest−1) — read from each
			// record's cursor through policy's log reader.
			left, err := filepath.Glob(filepath.Join(ckpt, "worker-1.*"))
			if err != nil || len(left) == 0 || len(left) > 2 {
				t.Fatalf("worker 1 retains %v (err %v), want one or two checkpoint log files", left, err)
			}
			seen := make(map[int]bool)
			for _, f := range left {
				recs, _, err := policy.LoadLog(f)
				if err != nil {
					t.Fatalf("checkpoint log does not load: %v", err)
				}
				for _, rec := range recs {
					var cur struct{ Round int }
					if err := json.Unmarshal(rec.Store.Meta(), &cur); err != nil {
						t.Fatalf("checkpoint cursor: %v", err)
					}
					seen[cur.Round] = true
				}
			}
			var held []int
			for r := range seen {
				held = append(held, r)
			}
			sort.Ints(held)
			if len(held) > 2 {
				held = held[len(held)-2:]
			}
			if want := []int{rounds - 2, rounds - 1}; fmt.Sprint(held) != fmt.Sprint(want) {
				t.Errorf("worker 1's newest checkpoints are of rounds %v, want %v", held, want)
			}
		})
	}
}
