package cq

import (
	"reflect"
	"testing"

	"mpclogic/internal/rel"
)

func TestIsAcyclic(t *testing.T) {
	d := rel.NewDict()
	cases := []struct {
		src  string
		want bool
	}{
		{"H(x, y) :- R(x, y)", true},
		{"H(x, z) :- R(x, y), S(y, z)", true},
		{"H(x, w) :- R(x, y), S(y, z), T(z, w)", true},
		{"H(x, y, z) :- R(x, y), S(y, z), T(z, x)", false},         // triangle
		{"H(a, c) :- R(a, b), S(b, c), T(c, dd), U(dd, a)", false}, // 4-cycle
		{"H(x) :- R(x, y), S(x, z), T(x, w)", true},                // star
		{"H(x, y, z) :- R(x, y, z), S(x, y), T(y, z)", true},       // big atom covers
		{"H(x) :- R(x), S(y)", true},                               // disconnected but acyclic
	}
	for _, c := range cases {
		q := MustParse(d, c.src)
		if got := IsAcyclic(q); got != c.want {
			t.Errorf("IsAcyclic(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestGYOJoinTree(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x, w) :- R(x, y), S(y, z), T(z, w)")
	jt, ok := GYO(q)
	if !ok {
		t.Fatal("path query reported cyclic")
	}
	if err := jt.Validate(); err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, p := range jt.Parent {
		if p == -1 {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("connected acyclic query should give one root, got %d", roots)
	}
	if jt.Depth() < 1 || jt.Depth() > 2 {
		t.Errorf("path join tree depth = %d", jt.Depth())
	}
	kids := jt.Children()
	total := 0
	for _, k := range kids {
		total += len(k)
	}
	if total != 2 {
		t.Errorf("3-node tree should have 2 edges, got %d", total)
	}
}

func TestGYOCyclicReturnsNil(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	if jt, ok := GYO(q); ok || jt != nil {
		t.Errorf("triangle should have no join tree")
	}
}

func TestIsConnected(t *testing.T) {
	d := rel.NewDict()
	cases := []struct {
		src  string
		want bool
	}{
		{"H(x) :- R(x)", true},
		{"H(x, z) :- R(x, y), S(y, z)", true},
		{"H(x) :- R(x), S(y)", false},
		{"H(x, y, z) :- R(x, y), S(y, z), T(z, x)", true},
		// The QNT-style rule with an unconnected guard atom.
		{"H(x, y) :- E(x, y), T(u, v, w)", false},
	}
	for _, c := range cases {
		q := MustParse(d, c.src)
		if got := IsConnected(q); got != c.want {
			t.Errorf("IsConnected(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestHypergraphOf(t *testing.T) {
	d := rel.NewDict()
	q := MustParse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
	h := HypergraphOf(q)
	if len(h.Vertices) != 3 || len(h.Edges) != 3 {
		t.Errorf("hypergraph shape %d/%d", len(h.Vertices), len(h.Edges))
	}
	for _, e := range h.Edges {
		if len(e) != 2 {
			t.Errorf("edge size %d", len(e))
		}
	}
}

func TestQueryStructurePredicates(t *testing.T) {
	d := rel.NewDict()
	full := MustParse(d, "H(x, y) :- R(x, y)")
	if !full.IsFull() {
		t.Errorf("full query not recognized")
	}
	proj := MustParse(d, "H(x) :- R(x, y)")
	if proj.IsFull() {
		t.Errorf("projection recognized as full")
	}
	sjf := MustParse(d, "H(x, z) :- R(x, y), S(y, z)")
	if !sjf.SelfJoinFree() {
		t.Errorf("self-join-free not recognized")
	}
	sj := MustParse(d, "H(x, z) :- R(x, y), R(y, z)")
	if sj.SelfJoinFree() {
		t.Errorf("self-join not recognized")
	}
}

func TestJoinColumns(t *testing.T) {
	d := rel.NewDict()
	cases := []struct {
		name         string
		body         string
		lCols, rCols []int
	}{
		{"one shared variable", "R(x, y), S(y, z)", []int{1}, []int{0}},
		{"order follows the right atom", "R(x, y), S(y, x)", []int{1, 0}, []int{0, 1}},
		{"repeated on the left: first occurrence", "R(y, x, y), S(y, z)", []int{0}, []int{0}},
		{"repeated on the right: listed once", "R(x, y), S(y, z, y)", []int{1}, []int{0}},
		{"repeated on both sides", "R(x, x, y), S(y, y, x)", []int{2, 0}, []int{0, 2}},
		{"constants are not join columns", "R(1, y, 2), S(2, 1, y)", []int{1}, []int{2}},
		{"equal constants do not join", "R(x, 1), S(1, z)", nil, nil},
		{"no shared variable", "R(x, y), S(z, w)", nil, nil},
		{"nullary right atom", "R(x), S()", nil, nil},
	}
	for _, tc := range cases {
		q := MustParse(d, "H() :- "+tc.body)
		lCols, rCols := JoinColumns(q.Body[0], q.Body[1])
		if !reflect.DeepEqual(lCols, tc.lCols) || !reflect.DeepEqual(rCols, tc.rCols) {
			t.Errorf("%s: JoinColumns(%s) = %v, %v, want %v, %v", tc.name, tc.body, lCols, rCols, tc.lCols, tc.rCols)
		}
	}
}

// Children returns, for each atom index, its child indices.
func (jt *JoinTree) Children() [][]int {
	out := make([][]int, len(jt.Atoms))
	for i, p := range jt.Parent {
		if p >= 0 {
			out[p] = append(out[p], i)
		}
	}
	return out
}
