package scale

import (
	"fmt"
	"math/rand"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/rel"
)

// follows builds a social graph where every account follows at most
// maxOut others, plus unrelated ballast accounts scaling with n.
func follows(n, maxOut int, seed int64) *rel.Instance {
	r := rand.New(rand.NewSource(seed))
	inst := rel.NewInstance()
	for u := 0; u < n; u++ {
		k := r.Intn(maxOut + 1)
		for j := 0; j < k; j++ {
			inst.Add(rel.NewFact("Follows", rel.Value(u), rel.Value(r.Intn(n))))
		}
	}
	return inst
}

func TestAnalyzeBounded(t *testing.T) {
	d := rel.NewDict()
	// Friends-of-friends of a fixed account: boundedly evaluable when
	// Follows has bounded out-degree.
	q := cq.MustParse(d, "H(y, z) :- Follows(0, y), Follows(y, z)")
	cons := Constraints{{Rel: "Follows", On: []int{0}, Fanout: 5}}
	plan, err := Analyze(q, cons)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("steps = %v", plan.Steps)
	}
	// Bound: 5 (first hop) + 25 (second hop) = 30 facts, whatever |D|.
	if plan.Bound != 30 {
		t.Errorf("bound = %d, want 30", plan.Bound)
	}
}

func TestAnalyzeUnbounded(t *testing.T) {
	d := rel.NewDict()
	// No constant entry point: every account's followers — unbounded.
	q := cq.MustParse(d, "H(x, y) :- Follows(x, y)")
	cons := Constraints{{Rel: "Follows", On: []int{0}, Fanout: 5}}
	if _, err := Analyze(q, cons); err == nil {
		t.Errorf("unbounded query accepted")
	}
	// Reverse access (followers of someone) is a different constraint;
	// without it, the reversed query is unbounded too.
	q2 := cq.MustParse(d, "H(x) :- Follows(x, 0)")
	if _, err := Analyze(q2, cons); err == nil {
		t.Errorf("reverse lookup accepted without a column-1 constraint")
	}
	if _, err := Analyze(q2, Constraints{{Rel: "Follows", On: []int{1}, Fanout: 9}}); err != nil {
		t.Errorf("reverse lookup rejected with a column-1 constraint: %v", err)
	}
	neg := cq.MustParse(d, "H(x) :- R(x), not S(x)")
	if _, err := Analyze(neg, cons); err == nil {
		t.Errorf("negated query accepted")
	}
}

// The point of scale independence: as |D| grows, the facts fetched by
// the bounded plan stay under the plan's bound while the database
// grows 16-fold.
func TestExecuteScaleIndependent(t *testing.T) {
	d := rel.NewDict()
	q := cq.MustParse(d, "H(y, z) :- Follows(0, y), Follows(y, z)")
	maxOut := 4
	cons := Constraints{{Rel: "Follows", On: []int{0}, Fanout: maxOut}}
	plan, err := Analyze(q, cons)
	if err != nil {
		t.Fatal(err)
	}
	var prevFetched int
	for _, n := range []int{1000, 4000, 16000} {
		inst := follows(n, maxOut, 7)
		if err := Verify(cons, inst); err != nil {
			t.Fatal(err)
		}
		got, fetched, err := Execute(plan, inst)
		if err != nil {
			t.Fatal(err)
		}
		want := cq.Evaluate(q, inst)
		if !got.Equal(want) {
			t.Fatalf("n=%d: bounded plan wrong (%d vs %d facts)", n, got.Len(), want.Len())
		}
		if fetched > plan.Bound {
			t.Errorf("n=%d: fetched %d > bound %d", n, fetched, plan.Bound)
		}
		prevFetched = fetched
	}
	_ = prevFetched
}

func TestVerifyCatchesViolation(t *testing.T) {
	cons := Constraints{{Rel: "Follows", On: []int{0}, Fanout: 1}}
	inst := rel.FromFacts(
		rel.NewFact("Follows", 1, 2),
		rel.NewFact("Follows", 1, 3),
	)
	if err := Verify(cons, inst); err == nil {
		t.Errorf("fanout violation accepted")
	}
}

func TestSmallRelationConstraint(t *testing.T) {
	d := rel.NewDict()
	// A dimension table declared globally small bootstraps the plan
	// without constants.
	q := cq.MustParse(d, "H(x, y) :- Dim(x), Follows(x, y)")
	cons := Constraints{
		{Rel: "Dim", On: nil, Fanout: 3},
		{Rel: "Follows", On: []int{0}, Fanout: 2},
	}
	plan, err := Analyze(q, cons)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bound != 3+6 {
		t.Errorf("bound = %d, want 9", plan.Bound)
	}
	inst := rel.MustInstance(d, "Dim(1)", "Dim(2)", "Follows(1,5)", "Follows(2,6)", "Follows(9,9)")
	got, fetched, err := Execute(plan, inst)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(cq.Evaluate(q, inst)) {
		t.Errorf("small-relation plan wrong")
	}
	if fetched > plan.Bound {
		t.Errorf("fetched %d > bound %d", fetched, plan.Bound)
	}
}

// TestExecuteAtomAtAnotherArity: the bounded plan reads atoms through
// cq.Matcher, so an atom wider or narrower than the relation the
// instance holds under its name matches nothing, and a repeated
// variable or a constant filters as the central evaluation does. Each
// answer equals cq.Evaluate's, and none panics.
func TestExecuteAtomAtAnotherArity(t *testing.T) {
	d := rel.NewDict()
	cons := Constraints{{Rel: "R", On: nil, Fanout: 4}}
	for _, c := range []struct {
		query string
		facts []string
	}{
		{"H(x) :- R(x, y)", []string{"R(a)", "R(b)"}},
		{"H(x) :- R(x)", []string{"R(a,b)", "R(b,c)"}},
		{"H(x) :- R(x, x)", []string{"R(a,a)", "R(a,b)", "R(c,c)"}},
		{"H(x) :- R(x, 'a')", []string{"R(a,a)", "R(b,a)", "R(c,b)"}},
	} {
		q := cq.MustParse(d, c.query)
		inst := rel.MustInstance(d, c.facts...)
		plan, err := Analyze(q, cons)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Execute(plan, inst)
		if err != nil {
			t.Fatal(err)
		}
		if want := cq.Evaluate(q, inst); !got.Equal(want) {
			t.Errorf("%s over %v: %v, cq.Evaluate answers %v", c.query, c.facts, got.Tuples(), want.Tuples())
		}
	}
}

// Verify checks that an instance honours the declared constraints.
func Verify(cons Constraints, inst *rel.Instance) error {
	for _, acc := range cons {
		r := inst.Relation(acc.Rel)
		if r == nil {
			continue
		}
		counts := map[string]int{}
		bad := false
		r.Each(func(t rel.Tuple) bool {
			k := t.Project(acc.On).Key()
			counts[k]++
			bad = counts[k] > acc.Fanout
			return !bad
		})
		if bad {
			return fmt.Errorf("scale: instance violates %s", acc)
		}
	}
	return nil
}
