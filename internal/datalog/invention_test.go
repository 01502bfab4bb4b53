package datalog

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mpclogic/internal/cq"
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

// Value invention (the wILOG extension of Figure 2, after Cabibbo):
// rules may use head variables that do not occur in the body; each
// satisfying binding of the body invents a fresh domain value per such
// variable, deterministically (skolemized on the rule and binding), so
// evaluation is repeatable. Because invention can cascade, evaluation
// is bounded by a configurable number of rounds. The dialect relaxes
// exactly one check of the rule language, head safety; everything else
// — the parser, the line syntax, the safety of negated atoms and
// inequalities — is the shared one (cq.ParseRule, cq.ValidateBody,
// parseRules).

// InventionProgram is a Datalog program whose rules may invent values.
type InventionProgram struct {
	Rules []*Rule
	// MaxRounds bounds fixpoint iteration (invention may not
	// terminate); 0 means DefaultInventionRounds.
	MaxRounds int
}

// DefaultInventionRounds bounds invention cascades.
const DefaultInventionRounds = 64

// inventionBase is where skolem values start; keep far away from data.
const inventionBase = rel.Value(1) << 40

// ParseInvention parses a program allowing invented head variables:
// Parse's line syntax, with each rule held to cq.ValidateBody only —
// head safety is the one check dropped, since the unsafe head
// variables are exactly the invented ones. A variable of a negated
// atom or inequality that no positive atom binds is still an error:
// an invented value exists only once the head fact does, so a body
// cannot test it.
func ParseInvention(d *rel.Dict, src string) (*InventionProgram, error) {
	rules, err := parseRules(src, func(line string) (*Rule, error) {
		r, err := cq.ParseRule(d, line)
		if err != nil {
			return nil, err
		}
		return r, r.ValidateBody()
	})
	if err != nil {
		return nil, err
	}
	return &InventionProgram{Rules: rules}, nil
}

// InventedVars returns the head variables of r that do not occur in
// the body (the invented positions).
func InventedVars(r *Rule) []string {
	bv := r.BodyVars()
	var out []string
	seen := map[string]bool{}
	for _, t := range r.Head.Args {
		if t.IsVar() && !bv[t.Var] && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// EvalInvention evaluates the program bottom-up; invented values are
// skolem terms determined by (rule index, invented variable, body
// binding), so re-derivations reuse the same value and evaluation is
// deterministic. Iteration stops at fixpoint or after MaxRounds.
func EvalInvention(p *InventionProgram, edb *rel.Instance) (*rel.Instance, int, error) {
	max := p.MaxRounds
	if max <= 0 {
		max = DefaultInventionRounds
	}
	db := edb.Clone()
	usesADom := false
	for _, r := range p.Rules {
		for _, a := range r.Body {
			if a.Rel == ADomRel {
				usesADom = true
			}
		}
	}
	if usesADom {
		populateADom(db)
	}
	skolem := map[string]rel.Value{}
	nextSkolem := inventionBase

	rounds := 0
	for ; rounds < max; rounds++ {
		grew := false
		for ri, r := range p.Rules {
			inv := InventedVars(r)
			if len(inv) == 0 {
				res := cq.Evaluate(r, db)
				res.Each(func(t rel.Tuple) bool {
					if db.Add(rel.Fact{Rel: r.Head.Rel, Tuple: t}) {
						grew = true
					}
					return true
				})
				continue
			}
			// Enumerate body bindings in deterministic (sorted) order so
			// skolem values are reproducible across runs.
			vals := cq.SatisfyingValuations(r, db)
			sort.Slice(vals, func(a, b int) bool {
				return bindingKey(r, vals[a]) < bindingKey(r, vals[b])
			})
			for _, v := range vals {
				key := fmt.Sprintf("%d|%v", ri, bindingKey(r, v))
				for _, iv := range inv {
					sk := key + "|" + iv
					val, ok := skolem[sk]
					if !ok {
						val = nextSkolem
						nextSkolem++
						skolem[sk] = val
					}
					v[iv] = val
				}
				f := v.Apply(r.Head)
				if db.Add(f) {
					grew = true
				}
			}
		}
		if !grew {
			return db, rounds + 1, nil
		}
	}
	return db, rounds, fmt.Errorf("datalog: invention did not converge within %d rounds", max)
}

func bindingKey(r *Rule, v cq.Valuation) string {
	out := ""
	for _, name := range r.Vars() {
		if val, ok := v[name]; ok {
			out += fmt.Sprintf("%s=%d;", name, int64(val))
		}
	}
	return out
}
