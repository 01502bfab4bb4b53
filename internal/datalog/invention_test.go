package datalog

import (
	"fmt"
	"strings"
	"testing"

	"mpclogic/internal/rel"
)

// An invented value exists only once the head fact does, so a body
// cannot negate or compare it: a variable of a negated atom or an
// inequality must be bound by a positive atom even when it is also an
// (otherwise legal) unsafe head variable. Head safety is the one check
// ParseInvention drops.
func TestInventionRejectsUnsafeBody(t *testing.T) {
	d := rel.NewDict()
	for _, tc := range []struct {
		src  string
		line int
	}{
		{"P(x, n) :- R(x), not S(n)", 1},
		{"P(x, n) :- R(x), n != x", 1},
		{"% a comment and a blank line first\n\nP(x) :- R(x), not S(y)", 3},
		{"P(x) :- not R(x)", 1},
		{"P(x, n) :- R(x)\nP(x :- R(x)", 2},
	} {
		_, err := ParseInvention(d, tc.src)
		if want := fmt.Sprintf("line %d:", tc.line); err == nil {
			t.Errorf("ParseInvention(%q) accepted an unsafe body", tc.src)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("ParseInvention(%q): error %q does not name %q", tc.src, err, want)
		}
	}
	if _, err := ParseInvention(d, "\n% nothing here\n"); err == nil {
		t.Errorf("empty invention program accepted")
	}
	for _, src := range []string{
		"N(x, y, w) :- E(x, y)",
		"N(y) :- N(x)\nN(w) :- Seed(x)",
		"P(x, 'a', n, 7) :- R(x, y), not S(y), x != y.",
		"  P(x, n) <- R(x)  \r\n\n% trailing comment",
	} {
		p, err := ParseInvention(d, src)
		if err != nil {
			t.Errorf("ParseInvention(%q): %v", src, err)
			continue
		}
		for _, r := range p.Rules {
			if len(InventedVars(r)) == 0 {
				t.Errorf("%q: rule %v invents nothing", src, r)
			}
		}
	}
}
