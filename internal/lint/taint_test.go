package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a tiny module in a temp dir and loads it.
func writeModule(t *testing.T, files map[string]string) *Module {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("loading temp module: %v", err)
	}
	return mod
}

// summaryOf computes taint for the module and returns the named
// function's summary.
func summaryOf(t *testing.T, mod *Module, name string) *summary {
	t.Helper()
	td := computeTaint(mod)
	for _, n := range td.cg.nodes {
		if n.obj.Name() == name {
			if n.summary == nil {
				t.Fatalf("function %s has no summary", name)
			}
			return n.summary
		}
	}
	t.Fatalf("function %s not found in call graph", name)
	return nil
}

func TestSummaryParamFlow(t *testing.T) {
	mod := writeModule(t, map[string]string{"a.go": `package a

func id(x int) int { return x }

func pick(a, b string) string { return b }
`})
	id := summaryOf(t, mod, "id")
	if len(id.results) != 1 || id.results[0].params != 1<<0 {
		t.Errorf("id: want result depending on param 0, got %+v", id.results)
	}
	if id.results[0].kinds != 0 {
		t.Errorf("id: no concrete taint expected, got %v", id.results[0].kinds)
	}
	pick := summaryOf(t, mod, "pick")
	if len(pick.results) != 1 || pick.results[0].params != 1<<1 {
		t.Errorf("pick: want result depending on param 1 only, got %+v", pick.results)
	}
}

func TestSummaryReceiverIsParamZero(t *testing.T) {
	mod := writeModule(t, map[string]string{"a.go": `package a

type box struct{ v int }

func (b box) get() int { return b.v }
`})
	get := summaryOf(t, mod, "get")
	if len(get.results) != 1 || get.results[0].params != 1<<0 {
		t.Errorf("get: want result depending on receiver (param 0), got %+v", get.results)
	}
}

func TestSummarySourceAndChain(t *testing.T) {
	// h generates map-order taint, g and f forward it: f's summary must
	// carry the concrete kind with the callee chain in the witness.
	mod := writeModule(t, map[string]string{"a.go": `package a

func h(m map[string]int) string {
	s := ""
	for k := range m {
		s += k
	}
	return s
}

func g(m map[string]int) string { return h(m) }

func f(m map[string]int) string { return g(m) }
`})
	f := summaryOf(t, mod, "f")
	if len(f.results) != 1 || f.results[0].kinds&kindMapOrder == 0 {
		t.Fatalf("f: want map-order taint in result, got %+v", f.results)
	}
	ws := f.results[0].witnessString()
	if !strings.Contains(ws, "via h → g") {
		t.Errorf("f: witness should name the chain h → g, got %q", ws)
	}
}

func TestSummaryRecursionHavoc(t *testing.T) {
	// Mutually recursive pair: in-cycle calls are black boxes, so the
	// taint h would contribute is dropped, and both members are marked.
	mod := writeModule(t, map[string]string{"a.go": `package a

func even(m map[string]int, n int) string {
	if n == 0 {
		s := ""
		for k := range m {
			s += k
		}
		return s
	}
	return odd(m, n-1)
}

func odd(m map[string]int, n int) string {
	return even(m, n-1)
}
`})
	odd := summaryOf(t, mod, "odd")
	if !odd.havocRecursion {
		t.Error("odd: recursive-cycle member should be marked havocRecursion")
	}
	if len(odd.results) != 1 || odd.results[0].kinds != 0 {
		t.Errorf("odd: in-cycle call must be havocked to no taint, got %+v", odd.results)
	}
	even := summaryOf(t, mod, "even")
	if !even.havocRecursion {
		t.Error("even: recursive-cycle member should be marked havocRecursion")
	}
	// even's own map range still contributes concrete taint.
	if len(even.results) != 1 || even.results[0].kinds&kindMapOrder == 0 {
		t.Errorf("even: local source must survive recursion havoc, got %+v", even.results)
	}
}

func TestSummaryDynamicCallHavoc(t *testing.T) {
	// Interface-method and function-value calls cannot be resolved, so
	// their results carry no taint even when every implementation would.
	mod := writeModule(t, map[string]string{"a.go": `package a

type enumerator interface {
	Enumerate() []string
}

func viaInterface(e enumerator) []string {
	return e.Enumerate()
}

func viaFuncValue(fn func() []string) []string {
	return fn()
}
`})
	vi := summaryOf(t, mod, "viaInterface")
	if len(vi.results) != 1 || !vi.results[0].isZero() {
		t.Errorf("viaInterface: dynamic call must be havocked, got %+v", vi.results)
	}
	vf := summaryOf(t, mod, "viaFuncValue")
	if len(vf.results) != 1 || !vf.results[0].isZero() {
		t.Errorf("viaFuncValue: function-value call must be havocked, got %+v", vf.results)
	}
}

func TestSummarySanitizerTransitivity(t *testing.T) {
	mod := writeModule(t, map[string]string{"a.go": `package a

import "sort"

func order(xs []string) {
	sort.Strings(xs)
}

func enumerate(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	order(ks)
	return ks
}

func leak(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
`})
	ord := summaryOf(t, mod, "order")
	if ord.sanitizes&(1<<0) == 0 {
		t.Errorf("order: parameter 0 should be marked sanitized, got %b", ord.sanitizes)
	}
	enum := summaryOf(t, mod, "enumerate")
	if len(enum.results) != 1 || enum.results[0].kinds != 0 {
		t.Errorf("enumerate: transitive sort must launder order taint, got %+v", enum.results)
	}
	lk := summaryOf(t, mod, "leak")
	if len(lk.results) != 1 || lk.results[0].kinds&kindMapOrder == 0 {
		t.Errorf("leak: unsorted enumeration must stay tainted, got %+v", lk.results)
	}
}

func TestSummarySinkFlows(t *testing.T) {
	// A function printing its parameter in a sink-scope package records
	// a sink flow for that parameter; callers passing tainted values
	// are reported at the call site (checked in the fixture golden).
	mod := writeModule(t, map[string]string{"main.go": `package main

import "fmt"

func emit(s string) {
	fmt.Println(s)
}

func main() {
	emit("ok")
}
`})
	em := summaryOf(t, mod, "emit")
	found := false
	for _, sf := range em.sinks {
		if sf.param == 0 && strings.Contains(sf.sink, "fmt.Println") {
			found = true
		}
	}
	if !found {
		t.Errorf("emit: want sink flow for param 0 into fmt.Println, got %+v", em.sinks)
	}
}

func TestCommutativeFoldLaundersOrder(t *testing.T) {
	mod := writeModule(t, map[string]string{"a.go": `package a

func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func concat(m map[string]string) string {
	s := ""
	for _, v := range m {
		s += v
	}
	return s
}
`})
	tot := summaryOf(t, mod, "total")
	if len(tot.results) != 1 || tot.results[0].kinds != 0 {
		t.Errorf("total: integer sum over a map is order-insensitive, got %+v", tot.results)
	}
	con := summaryOf(t, mod, "concat")
	if len(con.results) != 1 || con.results[0].kinds&kindMapOrder == 0 {
		t.Errorf("concat: string concatenation must stay order-tainted, got %+v", con.results)
	}
}

func TestMapWriteLaundersOrder(t *testing.T) {
	mod := writeModule(t, map[string]string{"a.go": `package a

func clone(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
`})
	cl := summaryOf(t, mod, "clone")
	if len(cl.results) != 1 || cl.results[0].kinds != 0 {
		t.Errorf("clone: map-to-map copy is order-insensitive, got %+v", cl.results)
	}
}
