package gym

import (
	"fmt"
	"math/rand"
	"testing"

	"mpclogic/internal/cq"
	"mpclogic/internal/rel"
)

// planBodies are acyclic bodies covering the shapes the planner walks:
// chains, stars, forests (GYO hangs a disconnected component off any
// witness, so the edge has no shared column), a constant, a variable
// repeated inside an atom, and a ternary atom.
var planBodies = []string{
	"R0(a, b)",
	"R0(a, b), R1(b, c)",
	"R0(a, b), R1(b, c), R2(c, dd)",
	"R0(a, b), R1(b, c), R2(c, dd), R3(dd, e)",
	"R0(c, x), R1(c, y), R2(c, z)",
	"R0(x, c), R1(c, y), R2(y, z), R3(c, w)",
	"R0(a, b), R1(c, dd)",
	"R0(a, b), R1(b, c), R2(dd, e)",
	"R0(a, b), R1(b, 2), R2(b, c)",
	"R0(a, a), R1(a, b)",
	"R0(a, b), R1(b, b), R2(b, 1)",
	"T0(a, b, c), R1(c, dd), R2(b, e)",
}

// planHeads returns the Boolean, projected, head-constant, and full
// heads over a body's variables (in first-occurrence order).
func planHeads(vars []string) []string {
	first, last := vars[0], vars[len(vars)-1]
	full := vars[0]
	for _, v := range vars[1:] {
		full += ", " + v
	}
	return []string{
		"H()",
		fmt.Sprintf("H(%s)", last),
		fmt.Sprintf("H(%s, %s)", last, first),
		fmt.Sprintf("H(%s, 7, %s)", first, first),
		fmt.Sprintf("H(%s)", full),
	}
}

// planInstance fills every body relation with seeded tuples over a
// small domain (so joins, constants, and repeated variables all hit)
// plus tuples over a range nothing else mentions, which dangle.
func planInstance(q *cq.CQ, seed int64) *rel.Instance {
	rng := rand.New(rand.NewSource(seed))
	inst := rel.NewInstance()
	for _, a := range q.Body {
		for k := 0; k < 14; k++ {
			t := make([]rel.Value, len(a.Args))
			for i := range t {
				t[i] = rel.Value(rng.Intn(4))
			}
			inst.Add(rel.NewFact(a.Rel, t...))
		}
		for k := 0; k < 3; k++ {
			t := make([]rel.Value, len(a.Args))
			for i := range t {
				t[i] = rel.Value(100 + rng.Intn(50))
			}
			inst.Add(rel.NewFact(a.Rel, t...))
		}
	}
	return inst
}

// The schedule is built once and interpreted twice: on generated
// acyclic queries the in-memory interpreter (with and without the
// reduction), the MPC interpreter at several p, and direct evaluation
// agree; the program's rounds are exactly the plan's steps, by name and
// in order, between materialize and project-head; the operation counts
// are the join tree's edge count; and the reduction bounds the
// intermediates as BENCH.json records.
func TestYannakakisPlanHasTwoInterpreters(t *testing.T) {
	d := rel.NewDict()
	for bi, body := range planBodies {
		vars := cq.HypergraphOf(cq.MustParse(d, "H() :- "+body)).Vertices
		for hi, head := range planHeads(vars) {
			src := head + " :- " + body
			q := cq.MustParse(d, src)
			inst := planInstance(q, int64(31*bi+hi))
			want := cq.Evaluate(q, inst)
			wantOut := cq.Output(q, inst)

			jt, ok := cq.GYO(q)
			if !ok {
				t.Fatalf("%s: generator produced a cyclic body", src)
			}
			edges := 0
			for _, par := range jt.Parent {
				if par >= 0 {
					edges++
				}
			}

			got, st, err := Yannakakis(q, inst)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s: Yannakakis %d tuples, direct %d", src, got.Len(), want.Len())
			}
			if st.Joins != edges || st.Semijoins != 2*edges {
				t.Errorf("%s: %d joins, %d semijoins on a tree of %d edges", src, st.Joins, st.Semijoins, edges)
			}
			gotAbl, stAbl, err := YannakakisWith(q, inst, false)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if !gotAbl.Equal(want) {
				t.Errorf("%s: unreduced Yannakakis %d tuples, direct %d", src, gotAbl.Len(), want.Len())
			}
			if stAbl.Joins != edges || stAbl.Semijoins != 0 {
				t.Errorf("%s: ablation ran %d joins, %d semijoins on a tree of %d edges", src, stAbl.Joins, stAbl.Semijoins, edges)
			}

			plan, ok := planYannakakis(q, true)
			if !ok {
				t.Fatalf("%s: planner refused an acyclic query", src)
			}
			names := []string{"materialize"}
			for _, s := range plan.steps {
				names = append(names, s.name)
			}
			names = append(names, "project-head")
			if len(names) != 2+st.Semijoins+st.Joins {
				t.Errorf("%s: %d rounds planned, want 2 + %d semijoins + %d joins", src, len(names), st.Semijoins, st.Joins)
			}
			for _, p := range []int{1, 3, 4} {
				prog, err := YannakakisProgram(q, p, uint64(17+p))
				c := simulate(t, prog, err, p, inst)
				if out := c.Output(); !out.Equal(wantOut) {
					t.Errorf("%s p=%d: distributed output %d facts, direct %d", src, p, out.Len(), wantOut.Len())
				}
				if c.Rounds() != len(names) {
					t.Fatalf("%s p=%d: %d rounds, plan has %d", src, p, c.Rounds(), len(names))
				}
				for i, rs := range c.Stats() {
					if rs.Name != names[i] {
						t.Errorf("%s p=%d: round %d is %q, plan says %q", src, p, i, rs.Name, names[i])
					}
				}
			}
		}
	}

	// The ablation's domain metric is a property of the schedule, so it
	// is pinned on the instance BenchmarkAblationSemijoinReduction runs
	// (400-way fan in and out of one hub, 10 surviving endpoints):
	// BENCH.json records 4000 with the reduction and 160000 without.
	q := cq.MustParse(d, "H(a, dd) :- R0(a, b), R1(b, c), R2(c, dd)")
	inst := rel.NewInstance()
	hub := rel.Value(1 << 30)
	for i := 0; i < 400; i++ {
		inst.Add(rel.NewFact("R0", rel.Value(i), hub))
		inst.Add(rel.NewFact("R1", hub, rel.Value(10000+i)))
	}
	for j := 0; j < 10; j++ {
		inst.Add(rel.NewFact("R2", rel.Value(10000+j), rel.Value(20000+j)))
	}
	for _, tc := range []struct {
		reduce bool
		want   int
	}{{true, 4000}, {false, 160000}} {
		_, st, err := YannakakisWith(q, inst, tc.reduce)
		if err != nil {
			t.Fatal(err)
		}
		if st.MaxIntermediate != tc.want {
			t.Errorf("fullReduction=%v: MaxIntermediate = %d, want %d", tc.reduce, st.MaxIntermediate, tc.want)
		}
	}
}
