package cq

import (
	"strings"
	"testing"

	"mpclogic/internal/rel"
)

func TestParseBasic(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x, z) :- R(x, y), R(y, z), S(z, x).")
	if q.Head.Rel != "H" || len(q.Head.Args) != 2 {
		t.Fatalf("head = %v", q.Head)
	}
	if len(q.Body) != 3 || q.Body[2].Rel != "S" {
		t.Fatalf("body = %v", q.Body)
	}
	if got := q.Vars(); len(got) != 3 {
		t.Errorf("vars = %v", got)
	}
	if q.HasNegation() || q.HasDiseq() {
		t.Errorf("unexpected extensions")
	}
}

func TestParseArrowVariants(t *testing.T) {
	d := rel.NewDict()
	q1 := MustParse(d, "H(x) :- R(x)")
	q2 := MustParse(d, "H(x) <- R(x)")
	if q1.String() != q2.String() {
		t.Errorf("arrow variants differ: %q vs %q", q1, q2)
	}
}

func TestParseNegationAndDiseq(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x,y,z) :- E(x,y), E(y,z), not E(z,x), x != y, y != z, z != x.")
	if len(q.Body) != 2 || len(q.Neg) != 1 || len(q.Diseq) != 3 {
		t.Fatalf("parsed %d body, %d neg, %d diseq", len(q.Body), len(q.Neg), len(q.Diseq))
	}
	if q.Neg[0].Rel != "E" {
		t.Errorf("neg atom = %v", q.Neg[0])
	}
	// "!" negation prefix too.
	q2 := MustParse(d, "H(x) :- R(x), !S(x)")
	if len(q2.Neg) != 1 {
		t.Errorf("bang negation not parsed: %v", q2)
	}
}

func TestParseConstants(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x) :- R(x, 'alice'), S(x, 42)")
	if q.Body[0].Args[1].IsVar() {
		t.Errorf("quoted constant parsed as variable")
	}
	if v, _ := d.Lookup("alice"); q.Body[0].Args[1].Const != v {
		t.Errorf("constant not interned")
	}
	if q.Body[1].Args[1].Const != 42 {
		t.Errorf("numeric constant = %v", q.Body[1].Args[1])
	}
}

func TestParseNullaryHead(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H() :- S(x), R(x, x), T(x)")
	if !q.IsBoolean() {
		t.Errorf("nullary head not boolean")
	}
}

func TestParseErrors(t *testing.T) {
	d := rel.NewDict()
	bad := []string{
		"",
		"H(x)",                   // no body
		"H(x) :- ",               // empty body
		"H(x) :- R(y)",           // unsafe head
		"H(x) :- R(x), not S(y)", // unsafe negation
		"H(x) :- R(x), x != y",   // unsafe inequality
		"H(x :- R(x)",            // malformed
		"H(x) :- R(x",            // unclosed
	}
	for _, src := range bad {
		if _, err := Parse(d, src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseUCQ(t *testing.T) {
	d := rel.NewDict()
	u := MustParseUCQ(d, "H(x) :- R(x, x)\nH(y) :- S(y)")
	if len(u.Disjuncts) != 2 {
		t.Fatalf("disjuncts = %d", len(u.Disjuncts))
	}
	if _, err := ParseUCQ(d, "H(x) :- R(x,x)\nG(y) :- S(y)"); err == nil {
		t.Errorf("mismatched heads accepted")
	}
	if _, err := ParseUCQ(d, "  \n "); err == nil {
		t.Errorf("empty union accepted")
	}
}

func TestStringRoundTrip(t *testing.T) {
	d := rel.NewDict()
	srcs := []string{
		"H(x, z) :- R(x, y), R(y, z), S(z, x)",
		"H(x) :- E(x, y), not E(y, x), x != y",
		"H() :- R(x, 1)",
	}
	for _, src := range srcs {
		q := MustParse(d, src)
		q2 := MustParse(d, q.String())
		if q.String() != q2.String() {
			t.Errorf("round trip changed %q -> %q", q.String(), q2.String())
		}
	}
}

func TestNotPrefixOfIdentifier(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x) :- notable(x)")
	if len(q.Neg) != 0 || len(q.Body) != 1 || q.Body[0].Rel != "notable" {
		t.Errorf("'notable' mangled: %v", q)
	}
}

func TestValidateSchemaConflict(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x) :- R(x), R(x, x)")
	if _, err := q.Schema(); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Errorf("conflicting arities accepted: %v", err)
	}
}

// Robustness: the parser must reject or accept arbitrary byte soup
// without panicking.
func TestParseNoPanicOnGarbage(t *testing.T) {
	d := rel.NewDict()
	inputs := []string{
		"", ")", "((((", "H(x :-", "H(x) :- R((", "¬¬¬", "H(x) :- R(x))))",
		"H(x) :- R(x), , S(x)", "H(x) :- R(x) S(x)", "'''", "H('a') :- R('a National",
		"H(x) :- R(x), x != ", "H(x) :- not", "-(x) :- R(x)", "H(-1) :- R(-1)",
		"H(\x00) :- R(\x00)", "H(x) :- R(x), !",
	}
	// Also pseudo-random byte strings.
	seed := uint64(12345)
	for k := 0; k < 200; k++ {
		b := make([]byte, k%37)
		for i := range b {
			seed = seed*6364136223846793005 + 1442695040888963407
			b[i] = byte(seed >> 33)
		}
		inputs = append(inputs, string(b))
	}
	for _, src := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _ = Parse(d, src)
		}()
	}
}

// ParseRule is Parse minus Validate: it accepts exactly the rules Parse
// refuses for safety, and the caller picks the checks. ValidateBody is
// Validate minus the head, so a rule with an unsafe head variable
// passes it while unsafe negation, an unsafe inequality, and an empty
// positive body do not.
func TestParseRuleLeavesSafetyToTheCaller(t *testing.T) {
	d := rel.NewDict()
	cases := []struct {
		src             string
		bodyOK, validOK bool
	}{
		{"H(x, y) :- R(x, y)", true, true},
		{"H(x, n) :- R(x)", true, false}, // unsafe head only
		{"H(x, 'a', n) :- R(x), not S(x), x != 3", true, false},
		{"H(x, n) :- R(x), not S(n)", false, false}, // unsafe negation
		{"H(x, n) :- R(x), n != x", false, false},   // unsafe inequality
		{"H(x) :- R(x), not S(y)", false, false},
		{"H(x) :- not R(x)", false, false}, // empty positive body
	}
	for _, tc := range cases {
		q, err := ParseRule(d, tc.src)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", tc.src, err)
			continue
		}
		if got := q.ValidateBody() == nil; got != tc.bodyOK {
			t.Errorf("%q: ValidateBody ok = %v, want %v", tc.src, got, tc.bodyOK)
		}
		if got := q.Validate() == nil; got != tc.validOK {
			t.Errorf("%q: Validate ok = %v, want %v", tc.src, got, tc.validOK)
		}
		if _, err := Parse(d, tc.src); (err == nil) != tc.validOK {
			t.Errorf("Parse(%q) error = %v, want ok = %v", tc.src, err, tc.validOK)
		}
	}
	for _, src := range []string{"", "H(x)", "H(x) :- ", "H(x :- R(x)", "H(x) :- R(x"} {
		if _, err := ParseRule(d, src); err == nil {
			t.Errorf("ParseRule(%q) succeeded, want a syntax error", src)
		}
	}
}
