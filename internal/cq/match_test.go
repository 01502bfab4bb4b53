package cq

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// matchReference is the definition of a match: t matches a when it has
// a's arity and one valuation maps a's terms onto t position by
// position. It returns that valuation listed over a.Vars().
func matchReference(a Atom, t rel.Tuple) (rel.Tuple, bool) {
	if len(t) != len(a.Args) {
		return nil, false
	}
	v := Valuation{}
	for p, arg := range a.Args {
		if !arg.IsVar() {
			if t[p] != arg.Const {
				return nil, false
			}
		} else if x, ok := v[arg.Var]; ok && x != t[p] {
			return nil, false
		} else {
			v[arg.Var] = t[p]
		}
	}
	var out rel.Tuple
	for _, name := range a.Vars() {
		out = append(out, v[name])
	}
	return out, true
}

// TestMatcherIsTheDefinition holds the compiled matcher to the
// reference on random atoms with constants and repeated variables, over
// instances that hold the atom's relation at its arity, narrower,
// wider, or not at all: the same variables, no relation exactly where
// no tuple can match, and for every stored tuple the same verdict and
// the same binding.
func TestMatcherIsTheDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	terms := []Term{V("x"), V("y"), V("z"), C(0), C(1)}
	census := map[string]int{}
	for trial := 0; trial < 500; trial++ {
		args := make([]Term, 1+rng.Intn(4))
		for k := range args {
			args[k] = terms[rng.Intn(len(terms))]
		}
		a := NewAtom("R", args...)
		inst := rel.NewInstance()
		arity := len(args) + rng.Intn(3) - 1
		switch {
		case rng.Intn(6) == 0:
			census["missing relation"]++
			inst.Add(rel.NewFact("S", 0))
		case arity < len(args):
			census["narrower relation"]++
		case arity > len(args):
			census["wider relation"]++
		}
		if inst.Relation("S") == nil {
			for n := rng.Intn(20); n >= 0; n-- {
				tu := make(rel.Tuple, arity)
				for j := range tu {
					tu[j] = rel.Value(rng.Intn(3))
				}
				inst.Add(rel.Fact{Rel: "R", Tuple: tu})
			}
		}
		for k, arg := range args {
			if !arg.IsVar() {
				census["constant"]++
			} else if slices.Index(args, arg) < k {
				census["repeated variable"]++
			}
		}

		m := NewMatcher(a)
		if !slices.Equal(m.Vars, a.Vars()) {
			t.Fatalf("%v: variables %v, want %v", a, m.Vars, a.Vars())
		}
		src, held := m.Relation(inst), inst.Relation("R")
		if held == nil || held.Arity != len(args) {
			if src != nil {
				t.Fatalf("%v over R/%d: the matcher reads a relation no tuple of which can match", a, arity)
			}
			continue
		}
		if src != held {
			t.Fatalf("%v over R/%d: the matcher reads no relation", a, arity)
		}
		src.Each(func(tu rel.Tuple) bool {
			want, ok := matchReference(a, tu)
			if m.Admits(tu) != ok {
				t.Fatalf("%v admits %v: %v, the definition says %v", a, tu, !ok, ok)
			}
			if got := tu.Project(m.Cols); ok && !got.Equal(want) {
				t.Fatalf("%v binds %v to %v, the definition to %v", a, tu, got, want)
			}
			if ok {
				census["match"]++
			}
			return true
		})
	}
	for _, feature := range []string{"constant", "repeated variable", "missing relation", "narrower relation", "wider relation", "match"} {
		if census[feature] == 0 {
			t.Errorf("no random atom exercised: %s", feature)
		}
	}
}

// TestEvaluationWritesNothing evaluates one instance from 8 goroutines
// at once, with nothing evaluated on it before: under -race, any write
// an evaluation made to the relations it reads — a cached index, a
// sorted enumeration — would be reported. The race detector can miss a
// given race, so four fresh instances take the test in turn. Each
// answer must equal the one computed on a private instance.
func TestEvaluationWritesNothing(t *testing.T) {
	d := rel.NewDict()
	var queries []*CQ
	for _, src := range []string{
		"A(x, z) :- R(x, y), S(y, z)",
		"B(x) :- R(x, y), S(y, z)",
		"F(x, z) :- R(x, y), R(y, z)",
		"G(x) :- R(x, x), S(x, z), not R(z, x)",
		"K(x, y) :- R(x, y), S(y, 3), x != y",
	} {
		queries = append(queries, MustParse(d, src))
	}
	private := workload.JoinSkewed(200, 0.2)
	want := make([]*rel.Relation, len(queries))
	for k, q := range queries {
		want[k] = Evaluate(q, private)
	}
	for round := 0; round < 4; round++ {
		inst := workload.JoinSkewed(200, 0.2)
		var wg sync.WaitGroup
		start := make(chan struct{}) // all start together, so their reads interleave
		errs := make(chan string, 16*len(queries))
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for k := 0; k < 2*len(queries); k++ {
					q := queries[(g+k)%len(queries)]
					if !Evaluate(q, inst).Equal(want[(g+k)%len(queries)]) {
						errs <- q.String()
					}
					if !q.HasNegation() {
						if gj, err := GenericJoin(q, inst); err != nil || !gj.Equal(want[(g+k)%len(queries)]) {
							errs <- "generic join of " + q.String()
						}
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("%s: a concurrent evaluation differs from the private one", e)
		}
	}
}
