package lint

import (
	"go/ast"
	"go/types"
)

// GoroutineAnalyzer enforces two rules on every `go` statement:
//
//  1. join: the launching function must contain a join point — a
//     sync.WaitGroup.Wait call, a channel receive, a range over a
//     channel, or a select statement. A fork with no join means the
//     simulated round can "finish" while servers still compute, which
//     breaks the MPC model's synchronous-round semantics.
//  2. disjoint writes: inside a goroutine closure, writes to a map are
//     flagged (maps are never safe for concurrent mutation), and
//     writes to a slice element are allowed only when the index is
//     derived from the closure's own parameters (index-disjoint
//     partitioning, the pattern of mpc.RunRound) or a mutex is held.
//
// Loop-variable capture needs no rule: the module is Go 1.22 or later,
// where every iteration binds its own loop variables.
var GoroutineAnalyzer = &Analyzer{
	Name: "goroutine-hygiene",
	Doc:  "every go statement needs a join and disjoint or locked shared writes",
	Run:  runGoroutine,
}

func runGoroutine(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		funcBodies(f, func(ft *ast.FuncType, body *ast.BlockStmt) {
			checkGoroutines(pass, body)
		})
	}
}

func checkGoroutines(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info

	var gos []*ast.GoStmt
	hasJoin := false

	// Collect go statements and join points, within this function scope
	// only.
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch s := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			return // separate scope; funcBodies visits it on its own
		case *ast.GoStmt:
			gos = append(gos, s)
		case *ast.RangeStmt:
			if _, isChan := typeUnderlying(info, s.X).(*types.Chan); isChan {
				hasJoin = true
			}
		case *ast.UnaryExpr:
			if s.Op.String() == "<-" {
				hasJoin = true
			}
		case *ast.SelectStmt:
			hasJoin = true
		case *ast.CallExpr:
			if fn := methodCallee(info, s); fn != nil && fn.Name() == "Wait" {
				recv := fn.Type().(*types.Signature).Recv().Type()
				if namedSyncType(recv, "WaitGroup") {
					hasJoin = true
				}
			}
		}
		walkChildren(walk, n)
	}
	walk(body)

	for _, g := range gos {
		if !hasJoin {
			pass.Reportf(g.Pos(), "goroutine launched without a join in the enclosing function (no WaitGroup.Wait, channel receive, or select); forked work can outlive the round")
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			continue
		}
		checkGoroutineWrites(pass, lit, funcLitParams(info, lit), info)
	}
}

func walkChildren(walk func(ast.Node), n ast.Node) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			walk(c)
		}
		return false
	})
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
