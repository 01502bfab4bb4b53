package cq

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"mpclogic/internal/rel"
)

// Parse parses a conjunctive query in rule syntax:
//
//	H(x, z) :- R(x, y), R(y, z), not S(x), x != y, z != 'a'.
//
// Variables are identifiers; constants are single-quoted names
// (interned in d) or bare integer literals. Both ":-" and "<-" are
// accepted as the rule arrow, the trailing period is optional, and
// "not "/"!" prefixes mark negated atoms. The result is validated:
// Parse is ParseRule followed by Validate.
func Parse(d *rel.Dict, src string) (*CQ, error) {
	q, err := ParseRule(d, src)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// ParseRule is the parse-only entry: the syntax of Parse with no
// safety check at all, for dialects that relax one — a caller picks
// the checks it wants (Validate, or ValidateBody alone when unsafe
// head variables mean value invention).
func ParseRule(d *rel.Dict, src string) (*CQ, error) {
	p := &parser{d: d, src: src}
	q, err := p.parseRule()
	if err != nil {
		return nil, fmt.Errorf("cq: parse %q: %w", src, err)
	}
	return q, nil
}

// MustParse is Parse that panics on error; for tests and examples.
func MustParse(d *rel.Dict, src string) *CQ {
	q, err := Parse(d, src)
	if err != nil {
		panic(err)
	}
	return q
}

// ParseUCQ parses a union of CQs, one rule per line (or separated by
// semicolons).
func ParseUCQ(d *rel.Dict, src string) (*UCQ, error) {
	u := &UCQ{}
	for _, line := range strings.FieldsFunc(src, func(r rune) bool { return r == '\n' || r == ';' }) {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		q, err := Parse(d, line)
		if err != nil {
			return nil, err
		}
		u.Disjuncts = append(u.Disjuncts, q)
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return u, nil
}

// MustParseUCQ is ParseUCQ that panics on error.
func MustParseUCQ(d *rel.Dict, src string) *UCQ {
	u, err := ParseUCQ(d, src)
	if err != nil {
		panic(err)
	}
	return u
}

type parser struct {
	d   *rel.Dict
	src string
	pos int
}

func (p *parser) parseRule() (*CQ, error) {
	head, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	p.ws()
	if !p.eat(":-") && !p.eat("<-") {
		return nil, p.errf("expected ':-' or '<-'")
	}
	q := &CQ{Head: head}
	for {
		p.ws()
		neg := false
		if p.eatWord("not") || p.eat("¬") || p.eat("!") && !p.peekIs("=") {
			neg = true
		}
		p.ws()
		// Either an atom or an inequality: both start with a term, but
		// atoms are Rel( ... ). Look ahead after the identifier.
		save := p.pos
		if !neg {
			if t, ok := p.tryTerm(); ok {
				p.ws()
				if p.eat("!=") || p.eat("≠") {
					p.ws()
					t2, ok := p.tryTerm()
					if !ok {
						return nil, p.errf("expected term after '!='")
					}
					q.Diseq = append(q.Diseq, [2]Term{t, t2})
					if !p.more(q) {
						break
					}
					continue
				}
				p.pos = save // not an inequality: reparse as atom
			}
		}
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		if neg {
			q.Neg = append(q.Neg, a)
		} else {
			q.Body = append(q.Body, a)
		}
		if !p.more(q) {
			break
		}
	}
	return q, nil
}

// more consumes a separator; it reports whether another body element
// follows. It also accepts the optional trailing period.
func (p *parser) more(q *CQ) bool {
	p.ws()
	if p.eat(",") {
		return true
	}
	p.eat(".")
	p.ws()
	return false
}

func (p *parser) parseAtom() (Atom, error) {
	p.ws()
	name := p.ident()
	if name == "" {
		return Atom{}, p.errf("expected relation name")
	}
	p.ws()
	if !p.eat("(") {
		return Atom{}, p.errf("expected '(' after %s", name)
	}
	a := Atom{Rel: name}
	p.ws()
	if p.eat(")") {
		return a, nil
	}
	for {
		p.ws()
		t, ok := p.tryTerm()
		if !ok {
			return Atom{}, p.errf("expected term in atom %s", name)
		}
		a.Args = append(a.Args, t)
		p.ws()
		if p.eat(")") {
			return a, nil
		}
		if !p.eat(",") {
			return Atom{}, p.errf("expected ',' or ')' in atom %s", name)
		}
	}
}

// tryTerm parses a variable, quoted constant, or integer constant.
func (p *parser) tryTerm() (Term, bool) {
	p.ws()
	if p.pos >= len(p.src) {
		return Term{}, false
	}
	ch := p.src[p.pos]
	switch {
	case ch == '\'':
		end := strings.IndexByte(p.src[p.pos+1:], '\'')
		if end < 0 {
			return Term{}, false
		}
		name := p.src[p.pos+1 : p.pos+1+end]
		p.pos += end + 2
		return C(p.d.Value(name)), true
	case ch == '-' || unicode.IsDigit(rune(ch)):
		start := p.pos
		p.pos++
		for p.pos < len(p.src) && unicode.IsDigit(rune(p.src[p.pos])) {
			p.pos++
		}
		n, err := strconv.ParseInt(p.src[start:p.pos], 10, 64)
		if err != nil {
			p.pos = start
			return Term{}, false
		}
		return C(rel.Value(n)), true
	default:
		name := p.ident()
		if name == "" {
			return Term{}, false
		}
		return V(name), true
	}
}

func (p *parser) ident() string {
	start := p.pos
	for p.pos < len(p.src) {
		r := rune(p.src[p.pos])
		if unicode.IsLetter(r) || r == '_' || (p.pos > start && (unicode.IsDigit(r))) {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

func (p *parser) ws() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\r' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *parser) eat(s string) bool {
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

// eatWord consumes s only when followed by a non-identifier character,
// so "not" does not swallow the prefix of "notable(x)".
func (p *parser) eatWord(s string) bool {
	if !strings.HasPrefix(p.src[p.pos:], s) {
		return false
	}
	rest := p.src[p.pos+len(s):]
	if rest != "" {
		r := rune(rest[0])
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			return false
		}
	}
	p.pos += len(s)
	return true
}

func (p *parser) peekIs(s string) bool {
	return strings.HasPrefix(p.src[p.pos:], s)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf(format+" at offset %d", append(args, p.pos)...)
}
