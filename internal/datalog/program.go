// Package datalog implements the Datalog dialects of Section 5.3 of
// Neven (PODS 2016): Datalog with inequalities, semi-positive Datalog
// (negation on EDB relations only), stratified Datalog with negation,
// the connectedness notions behind semi-connected Datalog, and
// well-founded semantics (for win-move). Evaluation is semi-naive with
// strata. A bounded form of value invention (wILOG) is kept beside its
// tests (invention_test.go): no program runs it.
package datalog

import (
	"fmt"
	"strings"

	"mpclogic/internal/cq"
	"mpclogic/internal/rel"
)

// ADomRel is the reserved relation name for the active-domain
// predicate used by programs like Example 5.13; the evaluator
// populates it from the EDB automatically when a program mentions it
// without defining it.
const ADomRel = "ADom"

// Rule is a Datalog rule; structurally it is a conjunctive query whose
// head relation is an IDB predicate. Negated atoms and inequalities
// follow the cq conventions.
type Rule = cq.CQ

// Program is a list of rules evaluated as one Datalog program.
type Program struct {
	Rules []*Rule
}

// Parse parses a program: one rule per line; blank lines and lines
// starting with '%' are ignored.
func Parse(d *rel.Dict, src string) (*Program, error) {
	rules, err := parseRules(src, func(line string) (*Rule, error) { return cq.Parse(d, line) })
	if err != nil {
		return nil, err
	}
	p := &Program{Rules: rules}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// parseRules is the line splitter every dialect shares: it hands each
// rule line of src to parse — skipping blank lines and lines starting
// with '%' — and names the 1-based line of the first error. A source
// with no rule is an error.
func parseRules(src string, parse func(line string) (*Rule, error)) ([]*Rule, error) {
	var rules []*Rule
	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		r, err := parse(line)
		if err != nil {
			return nil, fmt.Errorf("datalog: line %d: %w", ln+1, err)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("datalog: empty program")
	}
	return rules, nil
}

// MustParse is Parse that panics on error.
func MustParse(d *rel.Dict, src string) *Program {
	p, err := Parse(d, src)
	if err != nil {
		panic(err)
	}
	return p
}

// IDB returns the set of intensional relations (those occurring in
// rule heads).
func (p *Program) IDB() map[string]bool {
	out := map[string]bool{}
	for _, r := range p.Rules {
		out[r.Head.Rel] = true
	}
	return out
}

// UsesADom reports whether the program mentions the reserved ADom
// relation without defining it.
func (p *Program) UsesADom() bool {
	idb := p.IDB()
	if idb[ADomRel] {
		return false
	}
	for _, r := range p.Rules {
		for _, a := range r.Body {
			if a.Rel == ADomRel {
				return true
			}
		}
		for _, a := range r.Neg {
			if a.Rel == ADomRel {
				return true
			}
		}
	}
	return false
}

// Validate checks rule safety and consistent arities.
func (p *Program) Validate() error {
	schema := rel.Schema{}
	for _, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return err
		}
		if err := schema.Declare(r.Head.Rel, len(r.Head.Args)); err != nil {
			return err
		}
		for _, a := range r.Body {
			if err := schema.Declare(a.Rel, len(a.Args)); err != nil {
				return err
			}
		}
		for _, a := range r.Neg {
			if err := schema.Declare(a.Rel, len(a.Args)); err != nil {
				return err
			}
		}
	}
	return nil
}

// String renders the program, one rule per line.
func (p *Program) String() string {
	parts := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, "\n")
}
