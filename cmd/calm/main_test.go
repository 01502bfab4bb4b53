package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mpclogic/internal/mono"
	"mpclogic/internal/transducer"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const graph5 = "E(a,b)\nE(b,c)\nE(c,a)\n# a comment\nE(b,d)\nE(d,e)\n"

// calm runs the strategy it prints: one program per row of the table.
// The class and strategy lines are the row's, the distributed run
// matches the centralized result, and only the rows that run a
// protocol of their own — the domain-guided pulls and the coordinated
// fallback — send control messages; the broadcast rows send none.
func TestCalmRunsTheRowItPrints(t *testing.T) {
	cases := []struct {
		name, program, out string
		class              mono.Class
		control            bool
	}{
		{"positive TC", "TC(x, y) :- E(x, y)\nTC(x, y) :- TC(x, z), E(z, y)\n", "TC", mono.M, false},
		{"semi-positive open triangle", "H(x,y,z) :- E(x,y), E(y,z), not E(z,x)\n", "H", mono.Mdistinct, false},
		{"semi-connected ¬TC (Example 5.13)", "TC(x, y) :- E(x, y)\nTC(x, y) :- TC(x, z), TC(z, y)\nOUT(x, y) :- ADom(x), ADom(y), not TC(x, y)\n", "OUT", mono.Mdisjoint, true},
		{"QNT (Example 5.13(2))", "T(x, y, z) :- E(x, y), E(y, z), E(z, x), y != x, y != z, x != z\nS(x) :- ADom(x), T(u, v, w)\nOUT(x, y) :- E(x, y), not S(x)\n", "OUT", mono.None, true},
	}
	controlRE := regexp.MustCompile(`sent=\d+ control=(\d+) delivered=\d+ steps=\d+`)
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-program", write(t, "p.dl", c.program), "-out", c.out,
			"-facts", write(t, "g.txt", graph5), "-nodes", "3"}, &stdout, &stderr)
		got := stdout.String()
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s%s", c.name, code, got, stderr.String())
		}
		row := transducer.StrategyFor(c.class)
		for _, want := range []string{
			"  hierarchy class: " + c.class.String() + "\n",
			"  strategy: " + row.Name + "\n",
			"distributed output MATCHES the centralized result\n",
		} {
			if !strings.Contains(got, want) {
				t.Errorf("%s: missing %q in\n%s", c.name, want, got)
			}
		}
		m := controlRE.FindStringSubmatch(got)
		if m == nil {
			t.Fatalf("%s: no run line in\n%s", c.name, got)
		}
		if control, _ := strconv.Atoi(m[1]); (control > 0) != c.control {
			t.Errorf("%s: control=%d, want control messages: %v", c.name, control, c.control)
		}
	}
}

// Win-move is outside the hierarchy: calm says so and names the
// fallback. Without facts it stops after the classification.
func TestCalmClassificationOnly(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-program", write(t, "wm.dl", "Win(x) :- Move(x, y), not Win(y)\n"), "-out", "Win"}, &stdout, &stderr)
	got := stdout.String()
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, want := range []string{
		"  hierarchy class: coordination-required\n",
		"  strategy: " + transducer.StrategyFor(mono.None).Name + "\n",
		"no facts given; classification only\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in\n%s", want, got)
		}
	}
	if strings.Contains(got, "distributed run") {
		t.Errorf("ran a network without facts:\n%s", got)
	}
}

func TestCalmUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"-out", "TC"}, {"-program", "p.dl"}, {"-bogus"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: stdout %q, stderr %q; want a diagnostic on stderr only", args, stdout.String(), stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-program", filepath.Join(t.TempDir(), "missing.dl"), "-out", "TC"}, &stdout, &stderr); code != 1 {
		t.Errorf("missing program file: exit %d, want 1", code)
	}
}
