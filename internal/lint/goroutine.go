package lint

import (
	"go/ast"
	"go/types"
	"path"
)

// GoroutineAnalyzer enforces two rules on every `go` statement, in
// every package:
//
//  1. join: the goroutine must carry a *provable* join or cancellation
//     path tied to that specific goroutine — not merely some join point
//     somewhere in the spawning function. A closure body qualifies when
//     it calls wg.Done() (directly or deferred) on a WaitGroup the
//     spawner Wait()s on, sends on a channel the spawner drains (a
//     receive, a range, or a select case receiving from it), or ranges
//     over a channel the spawner closes (the worker-pool shutdown). A
//     `go f(...)` spawn of a named function offers no visible evidence
//     and is always flagged: wrap it in a closure that reports
//     completion. Without a join, a "finished" round can leave workers
//     running, which breaks the MPC model's synchronous-round semantics
//     and makes a networked transport's shutdown unverifiable.
//  2. disjoint writes: inside a goroutine closure, writes to a map are
//     flagged (maps are never safe for concurrent mutation), and
//     writes to a slice element are allowed only when the index is
//     derived from the closure's own parameters (index-disjoint
//     partitioning, the pattern of mpc.RunRound) or a mutex is held.
//     A func literal passed to sweep.Each — the repository's one
//     fan-out, which runs it on goroutines of its own — is held to
//     the same rule; the call is resolved through go/types, so an
//     import alias does not hide it and another package's Each is not
//     taken for it.
//
// Loop-variable capture needs no rule: the module is Go 1.22 or later,
// where every iteration binds its own loop variables.
var GoroutineAnalyzer = &Analyzer{
	Name: "goroutine-hygiene",
	Doc:  "every go statement needs a provable join and disjoint or locked shared writes",
	Run:  runGoroutine,
}

func runGoroutine(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		funcBodies(f, func(ft *ast.FuncType, body *ast.BlockStmt) {
			checkGoroutines(pass, body)
		})
	}
}

// checkGoroutines checks the go statements of one function scope;
// nested literals are their own scopes, visited by funcBodies.
func checkGoroutines(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	var gos []*ast.GoStmt
	walkScope(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			gos = append(gos, s)
		case *ast.CallExpr:
			if lit, ok := sweepEachBody(info, s); ok {
				checkGoroutineWrites(pass, lit, funcLitParams(info, lit), info)
			}
		}
		return true
	})
	if len(gos) == 0 {
		return
	}
	ev := gatherJoinEvidence(info, body)
	for _, g := range gos {
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			pass.Reportf(g.Pos(), "go statement spawns a named function, leaving no visible join evidence; wrap it in a closure that calls wg.Done or sends on a drained channel")
			continue
		}
		if !provenJoined(info, lit, ev) {
			pass.Reportf(g.Pos(), "goroutine has no provable join or cancellation path: pair wg.Add / defer wg.Done / wg.Wait, or send on a channel the spawner drains, or range over a channel the spawner closes")
		}
		checkGoroutineWrites(pass, lit, funcLitParams(info, lit), info)
	}
}

// sweepEachBody returns the func literal call passes to sweep.Each —
// the package-level Each of a package whose import path ends in
// /sweep — as its loop body.
func sweepEachBody(info *types.Info, call *ast.CallExpr) (*ast.FuncLit, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Name() != "Each" || fn.Pkg() == nil || path.Base(fn.Pkg().Path()) != "sweep" ||
		fn.Type().(*types.Signature).Recv() != nil || len(call.Args) != 3 {
		return nil, false
	}
	lit, ok := ast.Unparen(call.Args[2]).(*ast.FuncLit)
	return lit, ok
}

func typeUnderlying(info *types.Info, e ast.Expr) types.Type {
	t := info.TypeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// funcLitParams returns the objects of a function literal's parameters.
func funcLitParams(info *types.Info, lit *ast.FuncLit) map[types.Object]bool {
	params := make(map[types.Object]bool)
	if lit.Type.Params == nil {
		return params
	}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				params[obj] = true
			}
		}
	}
	return params
}

// checkGoroutineWrites flags shared-state mutation inside a goroutine
// closure: any map write, and slice-element writes whose index does
// not come from the closure's own parameters, unless a mutex Lock is
// taken inside the closure.
func checkGoroutineWrites(pass *Pass, lit *ast.FuncLit, params map[types.Object]bool, info *types.Info) {
	if holdsLock(lit.Body, info) {
		return
	}
	check := func(lhs ast.Expr) {
		ix, ok := lhs.(*ast.IndexExpr)
		if !ok {
			return
		}
		switch typeUnderlying(info, ix.X).(type) {
		case *types.Map:
			pass.Reportf(ix.Pos(), "map write inside goroutine without a lock; concurrent map mutation is undefined — use a mutex or a per-worker result slot")
		case *types.Slice, *types.Array, *types.Pointer:
			if !indexFromParams(ix.Index, params, info) {
				pass.Reportf(ix.Pos(), "slice write inside goroutine with an index not derived from the closure's parameters; workers may collide — pass the index as an argument or guard with a mutex")
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(s.X)
		}
		return true
	})
}

// indexFromParams reports whether every identifier in the index
// expression resolves to a closure parameter (or a constant), making
// writes from distinct workers disjoint by construction.
func indexFromParams(index ast.Expr, params map[types.Object]bool, info *types.Info) bool {
	if len(params) == 0 {
		return false
	}
	ok := true
	sawParam := false
	ast.Inspect(index, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		if params[obj] {
			sawParam = true
		} else {
			ok = false
		}
		return true
	})
	return ok && sawParam
}

// holdsLock reports whether the closure body takes any mutex lock.
func holdsLock(body *ast.BlockStmt, info *types.Info) bool {
	held := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := methodCallee(info, call); fn != nil {
			if fn.Name() == "Lock" || fn.Name() == "RLock" {
				recv := fn.Type().(*types.Signature).Recv().Type()
				if namedSyncType(recv, "Mutex") || namedSyncType(recv, "RWMutex") {
					held = true
					return false
				}
			}
		}
		return true
	})
	return held
}

// joinEvidence is what the spawning function's body offers: the
// WaitGroups it waits on, the channels it drains, and the channels it
// closes. Objects are collected over the whole body including nested
// literals — a Wait inside a helper closure still proves the join.
type joinEvidence struct {
	waited  map[types.Object]bool // wg objects with a Wait() call
	drained map[types.Object]bool // channels received from or ranged over
	closed  map[types.Object]bool // channels passed to close()
}

func gatherJoinEvidence(info *types.Info, body *ast.BlockStmt) *joinEvidence {
	ev := &joinEvidence{
		waited:  make(map[types.Object]bool),
		drained: make(map[types.Object]bool),
		closed:  make(map[types.Object]bool),
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			if fn := methodCallee(info, s); fn != nil && fn.Name() == "Wait" {
				recv := fn.Type().(*types.Signature).Recv().Type()
				if namedSyncType(recv, "WaitGroup") {
					if sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr); ok {
						addChanObj(info, ev.waited, sel.X)
					}
				}
			}
			if id, ok := ast.Unparen(s.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "close" && len(s.Args) == 1 {
					addChanObj(info, ev.closed, s.Args[0])
				}
			}
		case *ast.UnaryExpr:
			if s.Op.String() == "<-" {
				addChanObj(info, ev.drained, s.X)
			}
		case *ast.RangeStmt:
			if _, isChan := typeUnderlying(info, s.X).(*types.Chan); isChan {
				addChanObj(info, ev.drained, s.X)
			}
		}
		return true
	})
	return ev
}

func addChanObj(info *types.Info, set map[types.Object]bool, e ast.Expr) {
	if obj := baseObj(info, e); obj != nil {
		set[obj] = true
	}
}

// baseObj returns the object of e's base identifier, or nil; a nil
// object is never in an evidence set.
func baseObj(info *types.Info, e ast.Expr) types.Object {
	if base := baseIdent(e); base != nil {
		return objectOf(info, base)
	}
	return nil
}

// provenJoined checks the closure body for evidence tying this
// goroutine to one of the function's join points.
func provenJoined(info *types.Info, lit *ast.FuncLit, ev *joinEvidence) bool {
	joined := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch s := n.(type) {
		case *ast.CallExpr:
			if fn := methodCallee(info, s); fn != nil && fn.Name() == "Done" {
				recv := fn.Type().(*types.Signature).Recv().Type()
				if namedSyncType(recv, "WaitGroup") {
					if sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr); ok && ev.waited[baseObj(info, sel.X)] {
						joined = true
					}
				}
			}
		case *ast.SendStmt:
			if ev.drained[baseObj(info, s.Chan)] {
				joined = true
			}
		case *ast.RangeStmt:
			if _, isChan := typeUnderlying(info, s.X).(*types.Chan); isChan && ev.closed[baseObj(info, s.X)] {
				joined = true
			}
		}
		return true
	})
	return joined
}
