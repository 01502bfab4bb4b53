package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// NondetTaintAnalyzer is the interprocedural nondeterminism-taint
// analysis. Taint *sources* are the repo's known nondeterminism
// generators — map and sync.Map.Range iteration order, select-winner
// choice, goroutine completion order, unseeded math/rand, and
// wall-clock reads. Taint propagates through assignments, composite
// literals, returns, and call sites via function summaries computed
// bottom-up over the call graph's SCCs (callgraph.go, summary.go).
// *Sanitizers* are sort.* / slices.Sort* calls and any module function
// that provably sorts a parameter in place. *Sinks* are the
// determinism-critical surfaces the theorems constrain: values
// returned from exported engine entry points, RoundStats / SweepStats
// fields, StableStore writes, and anything passed to an encoder, fmt
// printer, or writer in a sink-scope package (engine packages plus the
// report-emitting layers; os.Stderr is exempt as the diagnostics
// stream).
//
// Dynamic calls (interface methods, function values), recursion,
// channel payloads, package-level variables, and function-literal
// return values are havoc points: taint is dropped there rather than
// spread, so the analyzer under-approximates (false negatives, never
// noise). DESIGN.md documents each havoc point.
var NondetTaintAnalyzer = &Analyzer{
	Name: "nondet-taint",
	Doc:  "nondeterministic values must not reach determinism-critical sinks, across call boundaries",
	Run:  runNondetTaint,
}

func runNondetTaint(pass *Pass) {
	if pass.taint == nil {
		return
	}
	for _, d := range pass.taint.diags[pass.Pkg.Path] {
		pass.Reportf(d.pos, "%s", d.msg)
	}
}

// rawDiag is a finding computed by the module-wide taint pass, held
// until the per-package analyzer run emits it through the normal
// suppression machinery.
type rawDiag struct {
	pos token.Pos
	msg string
}

// taintData is the result of the one module-wide taint computation.
type taintData struct {
	cg    *callGraph
	diags map[string][]rawDiag // package path → findings, in discovery order
	seen  map[string]bool      // "path|pos|msg" dedup
}

// computeTaint builds the call graph and computes every function's
// summary bottom-up, reporting sink violations as it goes. It runs
// once per lint.Run invocation, independent of package count.
func computeTaint(mod *Module) *taintData {
	td := &taintData{
		cg:    buildCallGraph(mod),
		diags: make(map[string][]rawDiag),
		seen:  make(map[string]bool),
	}
	for _, scc := range td.cg.sccs {
		recursive := len(scc) > 1
		for _, n := range scc {
			if !recursive && !n.recursive() {
				n.summary = td.analyze(mod, n, false)
			}
		}
		for _, n := range scc {
			if n.summary == nil {
				n.summary = td.analyze(mod, n, true)
			}
		}
	}
	return td
}

func (td *taintData) report(pkg *Package, pos token.Pos, msg string) {
	key := fmt.Sprintf("%s|%d|%s", pkg.Path, pos, msg)
	if td.seen[key] {
		return
	}
	td.seen[key] = true
	td.diags[pkg.Path] = append(td.diags[pkg.Path], rawDiag{pos: pos, msg: msg})
}

// orderFrame is one enclosing order-nondeterministic loop: an
// aggregation (append, string concatenation) performed inside it is
// order-tainted even when the aggregated values are clean.
type orderFrame struct {
	k   kind
	pos token.Pos
}

// taintWalker runs the flow-sensitive intraprocedural half over one
// function body, using callee summaries at call sites. Loop bodies are
// walked twice so taint carried around a back edge reaches the whole
// body; the domain is a finite join-semilattice, so this
// under-approximates a fixpoint only past two iterations of
// dependency, which sources here cannot produce.
type taintWalker struct {
	td   *taintData
	mod  *Module
	node *funcNode
	pkg  *Package
	info *types.Info

	state     map[types.Object]tval
	results   []tval
	sinks     []sinkFlow
	sanitizes uint64
	paramIdx  map[types.Object]int

	sinkScope   bool // package whose emitted bytes are determinism-critical
	engineScope bool // engine package: exported returns are sinks

	orderCtx []orderFrame
	goLit    *ast.FuncLit // non-nil while walking a go-statement closure
	retOwner bool         // false inside nested function literals
}

// analyze computes n's summary. With havocRecursion set, calls into
// n's own SCC yield no flows (the conservative havoc for recursion).
func (td *taintData) analyze(mod *Module, n *funcNode, havocRecursion bool) *summary {
	w := &taintWalker{
		td:          td,
		mod:         mod,
		node:        n,
		pkg:         n.pkg,
		info:        n.pkg.Info,
		state:       make(map[types.Object]tval),
		results:     make([]tval, numResults(n.decl.Type)),
		paramIdx:    make(map[types.Object]int),
		sinkScope:   isSinkScope(n.pkg.Types.Name()),
		engineScope: isEngine(n.pkg.Types.Name()),
		retOwner:    true,
	}
	idx := 0
	seedParams := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				idx++ // unnamed parameter still occupies a position
				continue
			}
			for _, name := range field.Names {
				if obj := w.info.Defs[name]; obj != nil && idx < 64 {
					w.paramIdx[obj] = idx
					w.state[obj] = tval{params: 1 << idx}
				}
				idx++
			}
		}
	}
	seedParams(n.decl.Recv)
	seedParams(n.decl.Type.Params)
	if havocRecursion {
		// Temporarily hide in-SCC summaries: calls to cycle members
		// resolve to nil and are treated as black boxes.
		hidden := make(map[*funcNode]*summary)
		for _, m := range td.cg.sccs[n.scc] {
			hidden[m] = m.summary
			m.summary = nil
		}
		defer func() {
			for m, s := range hidden {
				if m.summary == nil {
					m.summary = s
				}
			}
		}()
	}
	w.walkStmt(n.decl.Body)
	return &summary{results: w.results, sinks: w.sinks, sanitizes: w.sanitizes, havocRecursion: havocRecursion}
}

func numResults(ft *ast.FuncType) int {
	if ft.Results == nil {
		return 0
	}
	n := 0
	for _, field := range ft.Results.List {
		if len(field.Names) == 0 {
			n++
		} else {
			n += len(field.Names)
		}
	}
	return n
}

// ---- statement walk ----

func (w *taintWalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.walkStmt(st)
		}
	case *ast.AssignStmt:
		w.walkAssign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var tv tval
					if i < len(vs.Values) {
						tv = w.eval(vs.Values[i])
					} else if len(vs.Values) == 1 {
						tv = w.eval(vs.Values[0])
					}
					if obj := w.info.Defs[name]; obj != nil {
						w.setState(obj, tv, true)
					}
				}
			}
		}
	case *ast.ExprStmt:
		w.eval(s.X)
	case *ast.ReturnStmt:
		w.walkReturn(s)
	case *ast.IfStmt:
		w.walkStmt(s.Init)
		w.eval(s.Cond)
		w.walkStmt(s.Body)
		w.walkStmt(s.Else)
	case *ast.ForStmt:
		w.walkStmt(s.Init)
		if s.Cond != nil {
			w.eval(s.Cond)
		}
		for i := 0; i < 2; i++ {
			w.walkStmt(s.Body)
			w.walkStmt(s.Post)
		}
	case *ast.RangeStmt:
		w.walkRange(s)
	case *ast.SwitchStmt:
		w.walkStmt(s.Init)
		if s.Tag != nil {
			w.eval(s.Tag)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.eval(e)
				}
				for _, st := range cc.Body {
					w.walkStmt(st)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init)
		var subject tval
		switch a := s.Assign.(type) {
		case *ast.AssignStmt:
			if len(a.Rhs) == 1 {
				if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
					subject = w.eval(ta.X)
				}
			}
		case *ast.ExprStmt:
			if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
				subject = w.eval(ta.X)
			}
		}
		for _, clause := range s.Body.List {
			cc, ok := clause.(*ast.CaseClause)
			if !ok {
				continue
			}
			if obj := w.info.Implicits[cc]; obj != nil {
				w.setState(obj, subject, true)
			}
			for _, st := range cc.Body {
				w.walkStmt(st)
			}
		}
	case *ast.SelectStmt:
		w.walkSelect(s)
	case *ast.GoStmt:
		w.walkGo(s)
	case *ast.DeferStmt:
		w.eval(s.Call)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.SendStmt:
		w.eval(s.Chan)
		w.eval(s.Value) // channel payloads are a havoc point: taint stops here
	case *ast.IncDecStmt:
		w.eval(s.X)
	}
}

// walkRange handles the map-iteration source and the order context
// for aggregations performed inside nondeterministically ordered
// loops.
func (w *taintWalker) walkRange(s *ast.RangeStmt) {
	xTv := w.eval(s.X)
	t := w.info.TypeOf(s.X)
	var frame *orderFrame
	// The iteration variables inherit the ranged operand's taint (an
	// element of a tainted collection is tainted) for every range kind.
	seedVars := func(extra tval) {
		for _, e := range []ast.Expr{s.Key, s.Value} {
			id, ok := e.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if obj := objectOf(w.info, id); obj != nil {
				w.mergeState(obj, xTv.merge(extra))
			}
		}
	}
	if t != nil {
		switch t.Underlying().(type) {
		case *types.Map:
			frame = &orderFrame{k: kindMapOrder, pos: s.Pos()}
			seedVars(w.source(kindMapOrder, s.Pos()))
		case *types.Chan:
			// Arrival order over a channel is scheduling order when
			// several senders feed it; aggregations inside the loop
			// are order-tainted, the values themselves are not.
			frame = &orderFrame{k: kindGoroutine, pos: s.Pos()}
			seedVars(tval{})
		default:
			seedVars(tval{})
		}
	}
	if frame != nil {
		w.orderCtx = append(w.orderCtx, *frame)
	}
	for i := 0; i < 2; i++ {
		w.walkStmt(s.Body)
	}
	if frame != nil {
		w.orderCtx = w.orderCtx[:len(w.orderCtx)-1]
	}
}

// walkSelect taints values bound in the comm clauses of a select with
// more than one alternative: which clause runs is a scheduler choice.
func (w *taintWalker) walkSelect(s *ast.SelectStmt) {
	nondet := len(s.Body.List) >= 2
	for _, clause := range s.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		w.walkStmt(cc.Comm)
		if nondet {
			if a, ok := cc.Comm.(*ast.AssignStmt); ok {
				for _, lhs := range a.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						if obj := objectOf(w.info, id); obj != nil {
							w.mergeState(obj, w.source(kindSelect, cc.Pos()))
						}
					}
				}
			}
		}
		for _, st := range cc.Body {
			w.walkStmt(st)
		}
	}
}

// walkGo analyzes a go statement. A closure's writes to captured
// variables land in completion order, so they are goroutine-order
// tainted — unless the write is a slice/map element whose index is
// derived from the closure's own parameters (the index-disjoint
// fan-out pattern, whose content is a pure function of the index).
func (w *taintWalker) walkGo(s *ast.GoStmt) {
	lit, ok := s.Call.Fun.(*ast.FuncLit)
	if !ok {
		w.eval(s.Call)
		return
	}
	for _, arg := range s.Call.Args {
		w.eval(arg)
	}
	savedLit, savedRet := w.goLit, w.retOwner
	w.goLit, w.retOwner = lit, false
	w.walkStmt(lit.Body)
	w.goLit, w.retOwner = savedLit, savedRet
}

// capturedByGoroutine reports whether obj is declared outside the
// goroutine closure currently being walked.
func (w *taintWalker) capturedByGoroutine(obj types.Object) bool {
	if w.goLit == nil || obj == nil {
		return false
	}
	return obj.Pos() < w.goLit.Pos() || obj.Pos() > w.goLit.End()
}

func (w *taintWalker) walkAssign(s *ast.AssignStmt) {
	// Tuple assignment from a single multi-result call keeps
	// per-result precision.
	var tvs []tval
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			tvs = w.evalCall(call)
		} else {
			tv := w.eval(s.Rhs[0]) // comma-ok forms: v, ok := m[k] etc.
			tvs = make([]tval, len(s.Lhs))
			for i := range tvs {
				tvs[i] = tv
			}
		}
		for len(tvs) < len(s.Lhs) {
			tvs = append(tvs, tval{})
		}
	} else {
		for _, rhs := range s.Rhs {
			tvs = append(tvs, w.eval(rhs))
		}
	}
	for i, lhs := range s.Lhs {
		if i >= len(tvs) {
			break
		}
		w.assignTo(lhs, tvs[i], s.Tok, s.Pos())
	}
}

// assignTo applies one assignment: strong update for plain
// identifiers, weak update (merge into the base object) for element,
// field, and pointer writes; sink checks for stats-struct fields;
// goroutine-capture and order-context taint injection.
func (w *taintWalker) assignTo(lhs ast.Expr, tv tval, tok token.Token, pos token.Pos) {
	compound := tok != token.ASSIGN && tok != token.DEFINE
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := objectOf(w.info, l)
		if obj == nil {
			return
		}
		if compound {
			// String concatenation inside a nondeterministically
			// ordered loop is an order-dependent aggregation even when
			// the operand is clean. Integer compound assignment is the
			// opposite: `n += v` over every element of a map is a
			// commutative fold whose result is independent of iteration
			// order, so order-only taint is laundered (float folds keep
			// it — rounding is order-sensitive).
			if isStringType(w.info.TypeOf(l)) {
				tv = tv.merge(w.orderContextTaint(pos))
			} else if isCommutativeFold(tok) && isIntegerType(w.info.TypeOf(l)) {
				tv = tv.dropOrder()
			}
			w.mergeState(obj, tv)
		} else {
			w.setState(obj, tv, true)
		}
		if w.capturedByGoroutine(obj) {
			w.mergeState(obj, w.source(kindGoroutine, pos))
		}
	case *ast.SelectorExpr:
		w.checkStatsFieldSink(l, tv)
		base := baseIdent(l.X)
		if base == nil {
			return
		}
		obj := objectOf(w.info, base)
		if obj == nil {
			return
		}
		w.mergeState(obj, tv)
		if w.capturedByGoroutine(obj) {
			w.mergeState(obj, w.source(kindGoroutine, pos))
		}
	case *ast.IndexExpr:
		w.eval(l.Index)
		base := baseIdent(l.X)
		if base == nil {
			return
		}
		obj := objectOf(w.info, base)
		if obj == nil {
			return
		}
		// A map is an unordered collection: insertion order is
		// invisible to every reader, so writing an order-tainted value
		// under a deterministic-per-entry key launders order-only taint
		// (map-to-map copies inside a range are the canonical case).
		// Colliding keys with differing values would break this — a
		// documented under-approximation. Value taint (rand, clock)
		// lands in the content and is kept.
		if isMapType(w.info, l.X) {
			tv = tv.dropOrder().merge(w.eval(l.Index).dropOrder())
		}
		w.mergeState(obj, tv)
		if w.capturedByGoroutine(obj) && !w.indexFromGoroutineParams(l.Index) {
			w.mergeState(obj, w.source(kindGoroutine, pos))
		}
	case *ast.StarExpr:
		if base := baseIdent(l.X); base != nil {
			if obj := objectOf(w.info, base); obj != nil {
				w.mergeState(obj, tv)
			}
		}
	}
}

// indexFromGoroutineParams reports whether every variable in the index
// expression is a parameter of the goroutine closure being walked —
// the index-disjoint write pattern whose result is order-independent.
func (w *taintWalker) indexFromGoroutineParams(index ast.Expr) bool {
	if w.goLit == nil {
		return false
	}
	return indexFromParams(index, funcLitParams(w.info, w.goLit), w.info)
}

func (w *taintWalker) walkReturn(s *ast.ReturnStmt) {
	if !w.retOwner {
		// Returns of nested function literals: evaluate for sink
		// side effects, but their values are not this function's
		// results (a documented havoc point).
		for _, e := range s.Results {
			w.eval(e)
		}
		return
	}
	var tvs []tval
	switch {
	case len(s.Results) == 0:
		// Bare return with named results.
		tvs = make([]tval, len(w.results))
		if w.node.decl.Type.Results != nil {
			i := 0
			for _, field := range w.node.decl.Type.Results.List {
				for _, name := range field.Names {
					if obj := w.info.Defs[name]; obj != nil && i < len(tvs) {
						tvs[i] = w.state[obj]
					}
					i++
				}
			}
		}
	case len(s.Results) == 1 && len(w.results) > 1:
		if call, ok := ast.Unparen(s.Results[0]).(*ast.CallExpr); ok {
			tvs = w.evalCall(call)
		} else {
			tvs = []tval{w.eval(s.Results[0])}
		}
	default:
		for _, e := range s.Results {
			tvs = append(tvs, w.eval(e))
		}
	}
	for i, tv := range tvs {
		if i < len(w.results) {
			w.results[i] = w.results[i].merge(tv)
		}
		if tv.kinds != 0 && w.engineScope && w.node.decl.Name.IsExported() && !isErrorOnly(w.info, s, i) {
			w.td.report(w.pkg, s.Pos(), fmt.Sprintf(
				"%s returned from engine entry point %s; callers cannot re-sort what they cannot see — sort before returning, or suppress with //lint:allow nondet-taint naming the invariant that makes this safe",
				tv.witnessString(), w.node.obj.Name()))
		}
	}
}

// isErrorOnly exempts error results from the exported-return sink:
// error values carry control flow, not enumerated output.
func isErrorOnly(info *types.Info, s *ast.ReturnStmt, i int) bool {
	if i >= len(s.Results) {
		return false
	}
	return isErrorType(info.TypeOf(s.Results[i]))
}

// ---- expression evaluation ----

func (w *taintWalker) eval(e ast.Expr) tval {
	switch e := e.(type) {
	case nil:
		return tval{}
	case *ast.Ident:
		if obj := objectOf(w.info, e); obj != nil {
			return w.state[obj]
		}
		return tval{}
	case *ast.ParenExpr:
		return w.eval(e.X)
	case *ast.BinaryExpr:
		return w.eval(e.X).merge(w.eval(e.Y))
	case *ast.UnaryExpr:
		return w.eval(e.X)
	case *ast.StarExpr:
		return w.eval(e.X)
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := w.info.Uses[id].(*types.PkgName); isPkg {
				return tval{} // qualified identifier: package-level state is a havoc point
			}
		}
		return w.eval(e.X)
	case *ast.IndexExpr:
		if tv, ok := w.info.Types[e]; ok && tv.IsType() {
			return tval{} // generic instantiation
		}
		return w.eval(e.X).merge(w.eval(e.Index))
	case *ast.IndexListExpr:
		return w.eval(e.X)
	case *ast.SliceExpr:
		return w.eval(e.X)
	case *ast.TypeAssertExpr:
		return w.eval(e.X)
	case *ast.CompositeLit:
		out := tval{}
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				ev := w.eval(kv.Value)
				w.checkStatsLitSink(e, kv, ev)
				out = out.merge(ev)
				continue
			}
			out = out.merge(w.eval(elt))
		}
		return out
	case *ast.FuncLit:
		savedRet := w.retOwner
		w.retOwner = false
		w.walkStmt(e.Body)
		w.retOwner = savedRet
		return tval{} // closure values carry no taint: a havoc point
	case *ast.CallExpr:
		tvs := w.evalCall(e)
		out := tval{}
		for _, tv := range tvs {
			out = out.merge(tv)
		}
		return out
	default:
		return tval{}
	}
}

// source builds a concrete taint value with a witness at pos.
func (w *taintWalker) source(k kind, pos token.Pos) tval {
	return tval{kinds: k, wits: []*witness{{kind: k, pos: pos, src: relPos(w.mod.Fset, w.mod.Root, pos)}}}
}

// orderContextTaint returns the taint of aggregating inside the
// current stack of nondeterministically ordered loops.
func (w *taintWalker) orderContextTaint(pos token.Pos) tval {
	out := tval{}
	for _, frame := range w.orderCtx {
		out = out.merge(w.source(frame.k, frame.pos))
	}
	_ = pos
	return out
}

func (w *taintWalker) setState(obj types.Object, tv tval, strong bool) {
	if strong {
		w.state[obj] = tv
		return
	}
	w.mergeState(obj, tv)
}

func (w *taintWalker) mergeState(obj types.Object, tv tval) {
	if tv.isZero() {
		return
	}
	w.state[obj] = w.state[obj].merge(tv)
}

// sanitize strong-clears the order taints of the object behind e.
// When the sanitized object is one of this function's parameters, the
// laundering becomes part of its summary, so callers' arguments are
// laundered transitively.
func (w *taintWalker) sanitize(e ast.Expr) {
	base := baseIdent(e)
	if base == nil {
		return
	}
	obj := objectOf(w.info, base)
	if obj == nil {
		return
	}
	w.state[obj] = w.state[obj].dropOrder()
	if idx, ok := w.paramIdx[obj]; ok {
		w.sanitizes |= 1 << idx
	}
}

// baseIdent digs the root identifier out of x, x.f, x[i], *x chains.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isCommutativeFold reports whether the compound assignment operator
// forms an order-insensitive reduction over integers: + - * & | ^ all
// commute and associate (mod 2^n), so folding every element of an
// unordered collection through them yields one value regardless of
// visit order. Shifts and division do not qualify.
func isCommutativeFold(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		return true
	}
	return false
}
