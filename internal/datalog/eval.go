package datalog

import (
	"fmt"

	"mpclogic/internal/cq"
	"mpclogic/internal/rel"
)

// Eval computes the stratified semantics of the program on the given
// EDB: strata are evaluated bottom-up, each to its least fixpoint with
// semi-naive iteration. The result contains the EDB plus all derived
// facts (including ADom when the program uses it).
//
// Derived facts are unioned into the EDB's relations, so a relation the
// program derives — a rule head, or ADom when it is populated — that
// the EDB already holds at another arity is an error of the input pair,
// reported before anything is evaluated.
func Eval(p *Program, edb *rel.Instance) (*rel.Instance, error) {
	st, err := Stratify(p)
	if err != nil {
		return nil, err
	}
	clash := func(name string, arity int) error {
		if have := edb.Relation(name); have != nil && have.Arity != arity {
			return fmt.Errorf("datalog: the program derives %s at arity %d but the instance holds it at arity %d", name, arity, have.Arity)
		}
		return nil
	}
	for _, r := range p.Rules {
		if err := clash(r.Head.Rel, len(r.Head.Args)); err != nil {
			return nil, err
		}
	}
	usesADom := p.UsesADom()
	if usesADom {
		if err := clash(ADomRel, 1); err != nil {
			return nil, err
		}
	}
	db := edb.Clone()
	if usesADom {
		populateADom(db)
	}
	for s := 0; s < st.Count; s++ {
		if err := evalStratum(p, st.RulesByStratum[s], db); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// EvalQuery evaluates the program and projects the result onto one
// output relation.
func EvalQuery(p *Program, edb *rel.Instance, outRel string) (*rel.Instance, error) {
	db, err := Eval(p, edb)
	if err != nil {
		return nil, err
	}
	out := rel.NewInstance()
	if r := db.Relation(outRel); r != nil {
		out.SetRelation(r.Clone())
	}
	return out, nil
}

func populateADom(db *rel.Instance) {
	adom := db.ADom()
	r := db.EnsureRelation(ADomRel, 1)
	for v := range adom {
		r.Add(rel.Tuple{v})
	}
}

// evalStratum runs semi-naive iteration for one stratum's rules over
// db, mutating db in place. Negated atoms refer to relations that are
// complete at this point (EDB or lower strata) by stratification.
func evalStratum(p *Program, ruleIdx []int, db *rel.Instance) error {
	if len(ruleIdx) == 0 {
		return nil
	}
	// Which relations are being defined in this stratum?
	defined := map[string]bool{}
	for _, ri := range ruleIdx {
		defined[p.Rules[ri].Head.Rel] = true
	}

	// First round: evaluate every rule on the current db.
	delta := rel.NewInstance()
	for _, ri := range ruleIdx {
		r := p.Rules[ri]
		res := cq.Evaluate(r, db)
		res.Each(func(t rel.Tuple) bool {
			f := rel.Fact{Rel: r.Head.Rel, Tuple: t}
			if !db.Contains(f) {
				delta.Add(f)
			}
			return true
		})
	}
	db.AddAll(delta)

	// Semi-naive rounds: re-evaluate each rule once per recursive body
	// atom, with that atom restricted to the delta. The view is built
	// once per round (db is only mutated after the round) and the Δ
	// binding is an alias of the delta relation, not a copy — rebinding
	// per atom costs one map write.
	const deltaRel = "Δ"
	for !delta.IsEmpty() {
		// The round can at best multiply the frontier; seed the head
		// relations with the previous delta's size so early rounds don't
		// rehash their way up from nothing.
		next := rel.NewInstanceSize(len(ruleIdx))
		for _, ri := range ruleIdx {
			h := p.Rules[ri].Head
			next.EnsureRelationSize(h.Rel, len(h.Args), delta.Len())
		}
		view := shallowView(db)
		for _, ri := range ruleIdx {
			r := p.Rules[ri]
			for bi, a := range r.Body {
				if !defined[a.Rel] {
					continue
				}
				dRel := delta.Relation(a.Rel)
				if dRel == nil || dRel.Len() == 0 {
					continue
				}
				view.SetRelationAs(deltaRel, dRel)
				rr := rewriteAtom(r, bi, deltaRel)
				res := cq.Evaluate(rr, view)
				res.Each(func(t rel.Tuple) bool {
					f := rel.Fact{Rel: r.Head.Rel, Tuple: t}
					if !db.Contains(f) && !next.Contains(f) {
						next.Add(f)
					}
					return true
				})
			}
		}
		db.AddAll(next)
		delta = next
	}
	return nil
}

// shallowView clones the relation map of db without copying tuples, so
// a view can rebind one relation cheaply. The view must not be
// mutated through Add on shared relations; evalStratum only reads it.
func shallowView(db *rel.Instance) *rel.Instance {
	out := rel.NewInstance()
	for _, name := range db.RelationNames() {
		out.SetRelation(db.Relation(name))
	}
	return out
}

// rewriteAtom returns a copy of r with body atom bi renamed to newRel.
func rewriteAtom(r *Rule, bi int, newRel string) *Rule {
	out := r.Clone()
	out.Body[bi].Rel = newRel
	return out
}
