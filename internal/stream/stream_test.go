package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"mpclogic/internal/rel"
	"mpclogic/internal/workload"
)

// shuffled returns the instance's facts in a random stream order.
func shuffled(i *rel.Instance, seed int64) []rel.Fact {
	fs := i.Facts()
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(fs), func(a, b int) { fs[a], fs[b] = fs[b], fs[a] })
	return fs
}

func TestStreamSemiJoin(t *testing.T) {
	d := rel.NewDict()
	inst := rel.MustInstance(d,
		"R(a,1)", "R(b,2)", "R(c,1)", "R(dd,3)",
		"S(1)", "S(3)",
	)
	want := rel.SemiJoin(inst.Relation("R"), inst.Relation("S"), []int{1}, []int{0})

	n := &Network{
		Machines:  3,
		Key:       KeyOn(map[string][]int{"R": {1}, "S": {0}}),
		Automaton: SemiJoin("R", "S"),
	}
	for seed := int64(0); seed < 8; seed++ {
		out, st, err := n.Run(shuffled(inst, seed))
		if err != nil {
			t.Fatal(err)
		}
		got := out.Relation("R")
		if got == nil || !got.Equal(want) {
			t.Fatalf("seed %d: semijoin wrong", seed)
		}
		if st.MemoryPerGroup != 1 {
			t.Errorf("memory per group = %d, want 1 flag", st.MemoryPerGroup)
		}
	}
}

func TestStreamAntiJoin(t *testing.T) {
	d := rel.NewDict()
	inst := rel.MustInstance(d, "R(a,1)", "R(b,2)", "S(1)")
	want := rel.AntiJoin(inst.Relation("R"), inst.Relation("S"), []int{1}, []int{0})
	n := &Network{
		Machines:  2,
		Key:       KeyOn(map[string][]int{"R": {1}, "S": {0}}),
		Automaton: AntiJoin("R", "S"),
	}
	for seed := int64(0); seed < 8; seed++ {
		out, _, err := n.Run(shuffled(inst, seed))
		if err != nil {
			t.Fatal(err)
		}
		got := out.Relation("R")
		if got == nil || !got.Equal(want) {
			t.Fatalf("seed %d: antijoin wrong: got %v", seed, out.StringWith(d))
		}
	}
}

func TestStreamSelect(t *testing.T) {
	d := rel.NewDict()
	inst := rel.MustInstance(d, "R(1,1)", "R(1,2)", "R(3,3)")
	n := &Network{
		Machines: 2,
		Key:      KeyOn(map[string][]int{"R": {0}}),
		Automaton: Select("R",
			func(t rel.Tuple) bool { return t[0] == t[1] },
			func(t rel.Tuple) rel.Fact { return rel.Fact{Rel: "Out", Tuple: rel.Tuple{t[0]}} }),
	}
	out, _, err := n.Run(inst.Facts())
	if err != nil {
		t.Fatal(err)
	}
	want := rel.MustInstance(d, "Out(1)", "Out(3)")
	if !out.Equal(want) {
		t.Errorf("select = %v want %v", out.StringWith(d), want.StringWith(d))
	}
}

// The finite-memory claim: group sizes grow with the data, the per-
// group memory footprint does not.
func TestStreamMemoryConstant(t *testing.T) {
	n := &Network{
		Machines:  4,
		Key:       KeyOn(map[string][]int{"R": {1}, "S": {0}}),
		Automaton: SemiJoin("R", "S"),
	}
	var mem []int
	for _, m := range []int{100, 1000, 10000} {
		inst := workload.JoinSkewed(m, 0.5) // heavy group grows with m
		out, st, err := n.Run(inst.Facts())
		if err != nil {
			t.Fatal(err)
		}
		want := rel.SemiJoin(inst.Relation("R"), inst.Relation("S"), []int{1}, []int{0})
		if !out.Relation("R").Equal(want) {
			t.Fatalf("m=%d: semijoin wrong", m)
		}
		if st.LargestGroup < m/2 {
			t.Fatalf("m=%d: expected a large heavy group, got %d", m, st.LargestGroup)
		}
		mem = append(mem, st.MemoryPerGroup)
	}
	if mem[0] != mem[1] || mem[1] != mem[2] {
		t.Errorf("memory grew with data: %v", mem)
	}
}

func TestStreamValidation(t *testing.T) {
	n := &Network{Machines: 0, Key: KeyOn(nil), Automaton: SemiJoin("R", "S")}
	if _, _, err := n.Run(nil); err == nil {
		t.Errorf("zero machines accepted")
	}
	n = &Network{Machines: 1, Key: KeyOn(nil), Automaton: Automaton{}}
	if _, _, err := n.Run(nil); err == nil {
		t.Errorf("empty automaton accepted")
	}
}

func TestStreamUnroutedFactsIgnored(t *testing.T) {
	d := rel.NewDict()
	inst := rel.MustInstance(d, "R(a,1)", "S(1)", "Noise(9)")
	n := &Network{
		Machines:  2,
		Key:       KeyOn(map[string][]int{"R": {1}, "S": {0}}),
		Automaton: SemiJoin("R", "S"),
	}
	out, st, err := n.Run(inst.Facts())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Errorf("output = %v", out.StringWith(d))
	}
	// Noise was not processed: 2 routed facts × 2 passes.
	if st.FactsProcessed != 4 {
		t.Errorf("processed = %d, want 4", st.FactsProcessed)
	}
}

// AntiJoin is the complementary automaton (left ▷ right).
func AntiJoin(left, right string) Automaton {
	a := SemiJoin(left, right)
	a.Name = fmt.Sprintf("%s▷%s", left, right)
	a.Step = func(pass int, st *State, f rel.Fact) []rel.Fact {
		switch pass {
		case 0:
			if f.Rel == right {
				st.Flags[0] = true
			}
		case 1:
			if f.Rel == left && !st.Flags[0] {
				return []rel.Fact{f}
			}
		}
		return nil
	}
	return a
}

// Select is the one-pass stateless automaton emitting the facts of rel
// r that satisfy pred — selections (and projections, via the emit
// shape) need neither registers nor flags.
func Select(r string, pred func(rel.Tuple) bool, emit func(rel.Tuple) rel.Fact) Automaton {
	return Automaton{
		Name: "σ" + r, Passes: 1,
		Step: func(_ int, _ *State, f rel.Fact) []rel.Fact {
			if f.Rel == r && pred(f.Tuple) {
				return []rel.Fact{emit(f.Tuple)}
			}
			return nil
		},
	}
}
