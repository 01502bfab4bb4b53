package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Call-site handling for the nondet-taint walker: summary application
// for in-module callees, intrinsic models for the standard-library
// sources and sanitizers, and the sink checks.

// evalCall evaluates a call expression, returning one taint value per
// result (a single merged value when per-result precision is
// unavailable). All argument expressions are evaluated — function
// literal arguments are walked inline — and sink checks run here.
func (w *taintWalker) evalCall(call *ast.CallExpr) []tval {
	// Type conversion: T(x) is the identity on taint.
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
		out := tval{}
		for _, a := range call.Args {
			out = out.merge(w.eval(a))
		}
		return []tval{out}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.info.Uses[id].(*types.Builtin); ok {
			return w.evalBuiltin(b.Name(), call)
		}
	}

	callee, resolved := staticCallee(w.info, call)
	if callee == nil {
		// Dynamic call (function value, interface method) or an
		// immediately invoked literal: evaluate operands for their
		// side effects, then havoc — results carry no taint.
		w.eval(call.Fun)
		for _, a := range call.Args {
			w.eval(a)
		}
		_ = resolved
		return []tval{{}}
	}

	// sync.Map.Range: the callback observes pairs in nondeterministic
	// order — seed its parameters before walking its body.
	if isSyncMapRange(w.info, call) {
		if len(call.Args) == 1 {
			if lit, ok := call.Args[0].(*ast.FuncLit); ok {
				w.seedFuncLitParams(lit, w.source(kindMapOrder, call.Pos()))
			}
			w.orderCtx = append(w.orderCtx, orderFrame{k: kindMapOrder, pos: call.Pos()})
			w.eval(call.Args[0])
			w.orderCtx = w.orderCtx[:len(w.orderCtx)-1]
		}
		return []tval{{}}
	}

	// Position-aligned argument expressions; a method value's receiver
	// occupies position 0, matching the summary's parameter indexing.
	argExprs := w.callArgExprs(call)
	argTvs := make([]tval, len(argExprs))
	for i, e := range argExprs {
		argTvs[i] = w.eval(e)
	}

	if node, ok := w.td.cg.byFunc[callee]; ok {
		return w.applySummary(call, node, argExprs, argTvs)
	}
	return w.evalExtern(call, callee, argExprs, argTvs)
}

// callArgExprs returns the call's value operands, prepending the
// receiver expression for method-value calls.
func (w *taintWalker) callArgExprs(call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := w.info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			out = append(out, sel.X)
		}
	}
	return append(out, call.Args...)
}

// applySummary instantiates an in-module callee's summary at this call
// site: parameter-flow bits translate to argument taint, sink flows
// inside the callee fire against tainted arguments, and sanitized
// parameters launder the corresponding argument objects.
func (w *taintWalker) applySummary(call *ast.CallExpr, node *funcNode, argExprs []ast.Expr, argTvs []tval) []tval {
	w.checkStableStoreSink(call, node.obj, argExprs, argTvs)
	if node.summary == nil {
		// In-cycle callee during recursive-SCC analysis: havoc.
		return []tval{{}}
	}
	paramTv := mapArgsToParams(node, argTvs)

	for _, sf := range node.summary.sinks {
		if sf.param >= len(paramTv) {
			continue
		}
		at := paramTv[sf.param]
		if at.kinds != 0 && w.sinkScope {
			chain := append([]string{node.obj.Name()}, sf.via...)
			w.td.report(w.pkg, call.Pos(), fmt.Sprintf(
				"%s flows into %s inside %s; sort at the source, or suppress with //lint:allow nondet-taint naming the invariant that makes this safe",
				at.witnessString(), sf.sink, strings.Join(chain, " → ")))
		}
		for p := 0; p < 64; p++ {
			if at.params&(1<<p) != 0 {
				w.addSinkFlow(p, sf.sink, append([]string{node.obj.Name()}, sf.via...))
			}
		}
	}

	for p := 0; p < 64 && p < len(argExprs); p++ {
		if node.summary.sanitizes&(1<<p) != 0 {
			w.sanitize(argExprs[p])
		}
	}

	n := len(node.summary.results)
	if n == 0 {
		return []tval{{}}
	}
	out := make([]tval, n)
	for i, r := range node.summary.results {
		res := tval{kinds: r.kinds, wits: r.wits}.viaCall(node.obj.Name())
		for p := 0; p < 64 && p < len(paramTv); p++ {
			if r.params&(1<<p) != 0 {
				res = res.merge(paramTv[p])
			}
		}
		out[i] = res
	}
	return out
}

// mapArgsToParams aligns argument taints with the callee's parameter
// positions, collapsing variadic tails into the final parameter.
func mapArgsToParams(node *funcNode, argTvs []tval) []tval {
	sig, ok := node.obj.Type().(*types.Signature)
	if !ok {
		return argTvs
	}
	n := sig.Params().Len()
	if sig.Recv() != nil {
		n++
	}
	out := make([]tval, n)
	for i := 0; i < n && i < len(argTvs); i++ {
		out[i] = argTvs[i]
	}
	if sig.Variadic() && n > 0 {
		for i := n - 1; i < len(argTvs); i++ {
			out[n-1] = out[n-1].merge(argTvs[i])
		}
	}
	return out
}

// evalExtern models calls that leave the module: a handful of
// intrinsic sources and sanitizers, sink checks for output calls, and
// argument passthrough for everything else.
func (w *taintWalker) evalExtern(call *ast.CallExpr, callee *types.Func, argExprs []ast.Expr, argTvs []tval) []tval {
	if path, name, ok := pkgFunc(w.info, call); ok {
		switch {
		case (path == "math/rand" || path == "math/rand/v2") && !randConstructors[name]:
			return []tval{w.source(kindRand, call.Pos())}
		case path == "time" && (name == "Now" || name == "Since" || name == "Until"):
			return []tval{w.source(kindClock, call.Pos())}
		case path == "sort" || path == "slices":
			if isSanitizerName(path, name) && len(call.Args) > 0 {
				w.sanitize(call.Args[0])
				merged := tval{}
				for _, tv := range argTvs {
					merged = merged.merge(tv)
				}
				return []tval{merged.dropOrder()}
			}
		}
		w.checkFmtSink(call, path, name, argTvs)
		w.checkEncodingSink(call, path, name, argTvs)
	}

	w.checkStableStoreSink(call, callee, argExprs, argTvs)
	w.checkWriterSink(call, argTvs)

	// Receiver-mutation heuristic: a tainted argument fed to a method
	// taints the receiver object (strings.Builder.WriteString and
	// friends accumulate state we do not otherwise track).
	merged := tval{}
	for _, tv := range argTvs {
		merged = merged.merge(tv)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := w.info.Selections[sel]; ok && s.Kind() == types.MethodVal && !merged.isZero() {
			if base := baseIdent(sel.X); base != nil {
				if obj := objectOf(w.info, base); obj != nil {
					w.mergeState(obj, merged)
				}
			}
		}
	}
	return []tval{merged}
}

func (w *taintWalker) evalBuiltin(name string, call *ast.CallExpr) []tval {
	switch name {
	case "append":
		out := tval{}
		for _, a := range call.Args {
			out = out.merge(w.eval(a))
		}
		// Appending inside a nondeterministically ordered loop builds
		// an order-dependent sequence even from clean elements.
		return []tval{out.merge(w.orderContextTaint(call.Pos()))}
	case "copy":
		if len(call.Args) == 2 {
			src := w.eval(call.Args[1])
			w.eval(call.Args[0])
			if base := baseIdent(call.Args[0]); base != nil {
				if obj := objectOf(w.info, base); obj != nil {
					w.mergeState(obj, src)
				}
			}
		}
		return []tval{{}}
	default:
		// len, cap, min, max, make, new, delete, clear, close, panic,
		// recover, complex, real, imag: evaluate operands, results are
		// clean (a set's size is deterministic even when its order is
		// not).
		for _, a := range call.Args {
			w.eval(a)
		}
		return []tval{{}}
	}
}

// isSanitizerName recognizes the sort-package and slices-package
// calls that impose a deterministic order on their first argument.
func isSanitizerName(path, name string) bool {
	if path == "sort" {
		switch name {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return true
		}
		return false
	}
	return strings.HasPrefix(name, "Sort")
}

func isSyncMapRange(info *types.Info, call *ast.CallExpr) bool {
	fn := methodCallee(info, call)
	if fn == nil || fn.Name() != "Range" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	return namedSyncType(recv, "Map")
}

func (w *taintWalker) seedFuncLitParams(lit *ast.FuncLit, tv tval) {
	if lit.Type.Params == nil {
		return
	}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if obj := w.info.Defs[name]; obj != nil {
				w.mergeState(obj, tv)
			}
		}
	}
}

// ---- sinks ----

// sinkHit processes a taint value arriving at a sink: concrete taint
// is reported, parameter-symbolic taint becomes a sink flow in this
// function's summary so callers report at their call sites.
func (w *taintWalker) sinkHit(pos token.Pos, desc string, tv tval) {
	if !w.sinkScope {
		return
	}
	if tv.kinds != 0 {
		w.td.report(w.pkg, pos, fmt.Sprintf(
			"%s reaches %s; sort at the source, or suppress with //lint:allow nondet-taint naming the invariant that makes this safe",
			tv.witnessString(), desc))
	}
	for p := 0; p < 64; p++ {
		if tv.params&(1<<p) != 0 {
			w.addSinkFlow(p, desc, nil)
		}
	}
}

func (w *taintWalker) addSinkFlow(param int, sink string, via []string) {
	for _, sf := range w.sinks {
		if sf.param == param && sf.sink == sink {
			return
		}
	}
	w.sinks = append(w.sinks, sinkFlow{param: param, sink: sink, via: via})
}

// checkFmtSink treats fmt output as a sink: printed bytes are the
// surfaces the determinism experiments compare. The stderr stream is
// exempt — it carries diagnostics and timing, never compared output.
func (w *taintWalker) checkFmtSink(call *ast.CallExpr, path, name string, argTvs []tval) {
	if path != "fmt" {
		return
	}
	start := 0
	switch name {
	case "Fprint", "Fprintf", "Fprintln":
		if len(call.Args) == 0 || isStderrExpr(w.info, call.Args[0]) {
			return
		}
		start = 1
	case "Print", "Printf", "Println":
	default:
		return
	}
	for i := start; i < len(argTvs); i++ {
		w.sinkHit(call.Pos(), fmt.Sprintf("fmt.%s output", name), argTvs[i])
	}
}

func (w *taintWalker) checkEncodingSink(call *ast.CallExpr, path, name string, argTvs []tval) {
	if !strings.HasPrefix(path, "encoding/") || !strings.HasPrefix(name, "Marshal") {
		return
	}
	for _, tv := range argTvs {
		w.sinkHit(call.Pos(), path+"."+name+" encoding", tv)
	}
}

// checkWriterSink flags tainted values written to builders, buffers,
// files, and encoders via method calls.
func (w *taintWalker) checkWriterSink(call *ast.CallExpr, argTvs []tval) {
	fn := methodCallee(w.info, call)
	if fn == nil {
		return
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	isEncode := fn.Name() == "Encode" && fn.Pkg() != nil && strings.HasPrefix(fn.Pkg().Path(), "encoding/")
	isWrite := false
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		isWrite = isWriterLike(recv) || namedNamed(recv, "bufio", "Writer")
	}
	if !isWrite && !isEncode {
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isStderrExpr(w.info, sel.X) {
		return
	}
	// Skip the receiver slot (argTvs[0] for method values): the writer
	// itself being tainted is not a write of tainted bytes.
	start := 0
	if s, ok := w.info.Selections[ast.Unparen(call.Fun).(*ast.SelectorExpr)]; ok && s.Kind() == types.MethodVal {
		start = 1
	}
	desc := fmt.Sprintf("%s.%s write", typeShortName(recv), fn.Name())
	for i := start; i < len(argTvs); i++ {
		w.sinkHit(call.Pos(), desc, argTvs[i])
	}
}

// checkStableStoreSink flags tainted values handed to the durable
// store: what a crash recovers must be a deterministic function of the
// input distribution. Matching is by name (NewStableStore, or any
// method on a type named StableStore), so the fixture module can
// exercise it without importing the real package.
func (w *taintWalker) checkStableStoreSink(call *ast.CallExpr, callee *types.Func, argExprs []ast.Expr, argTvs []tval) {
	isStore := callee.Name() == "NewStableStore"
	if !isStore {
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			if n, ok := deref(sig.Recv().Type()).(*types.Named); ok && n.Obj().Name() == "StableStore" {
				isStore = true
			}
		}
	}
	if !isStore {
		return
	}
	start := 0
	if len(argExprs) > len(call.Args) {
		start = 1 // receiver slot
	}
	for i := start; i < len(argTvs); i++ {
		w.sinkHit(call.Pos(), "StableStore write ("+callee.Name()+")", argTvs[i])
	}
}

// checkStatsFieldSink fires when an assignment writes into a field of
// the cost-accounting structs whose bytes the theorems pin.
func (w *taintWalker) checkStatsFieldSink(sel *ast.SelectorExpr, tv tval) {
	if tv.isZero() {
		return
	}
	name := statsTypeName(w.info.TypeOf(sel.X))
	if name == "" {
		return
	}
	w.sinkHit(sel.Pos(), fmt.Sprintf("%s field %q", name, sel.Sel.Name), tv)
}

// checkStatsLitSink is the composite-literal form: RoundStats{F: v}.
func (w *taintWalker) checkStatsLitSink(lit *ast.CompositeLit, kv *ast.KeyValueExpr, tv tval) {
	if tv.isZero() {
		return
	}
	name := statsTypeName(w.info.TypeOf(lit))
	if name == "" {
		return
	}
	field := ""
	if id, ok := kv.Key.(*ast.Ident); ok {
		field = id.Name
	}
	w.sinkHit(kv.Pos(), fmt.Sprintf("%s field %q", name, field), tv)
}

// statsTypeName matches the determinism-critical stats structs by
// type name, package-independently (so fixtures can model them).
func statsTypeName(t types.Type) string {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return ""
	}
	switch n.Obj().Name() {
	case "RoundStats", "SweepStats":
		return n.Obj().Name()
	}
	return ""
}

func typeShortName(t types.Type) string {
	if n, ok := deref(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

func isStderrExpr(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Stderr" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "os"
}
