package main

import (
	"os"
	"path/filepath"
	"testing"

	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

func TestLoadPolicy(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "policy.txt")
	content := `# Example 4.3's policy
0 R(a,a)
0 R(b,a)
0 R(b,b)
1 R(a,a)
1 R(a,b)
1 R(b,b)
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	d := rel.NewDict()
	pol, err := loadPolicy(d, path, "c")
	if err != nil {
		t.Fatal(err)
	}
	if pol.NumNodes() != 2 {
		t.Errorf("nodes = %d", pol.NumNodes())
	}
	ab := rel.MustFact(d, "R(a,b)")
	if policy.Responsible(pol, 0, ab) || !policy.Responsible(pol, 1, ab) {
		t.Errorf("R(a,b) placement wrong")
	}
	// Universe: a, b from the file plus c from -universe.
	if got := len(pol.Universe()); got != 3 {
		t.Errorf("universe size = %d, want 3", got)
	}
}

func TestLoadPolicyErrors(t *testing.T) {
	dir := t.TempDir()
	d := rel.NewDict()
	if _, err := loadPolicy(d, filepath.Join(dir, "missing.txt"), ""); err == nil {
		t.Errorf("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.txt")
	for i, content := range []string{
		"zero R(a)",   // bad node id
		"0 R(a",       // bad fact
		"justoneword", // shape
		"-1 R(a,b)",   // negative node id
	} {
		if err := os.WriteFile(bad, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadPolicy(d, bad, ""); err == nil {
			t.Errorf("case %d accepted: %q", i, content)
		}
	}
}
