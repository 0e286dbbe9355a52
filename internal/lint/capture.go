package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineCapture guards the race-free output-parallel invariant of
// Algorithm 1 (§4.1): every worker must own a disjoint partition of the
// output, identified by an index it computed itself. A closure that runs
// concurrently — passed to a go statement or to one of the sched package's
// runners (Dynamic, DynamicCtx, StaticCtx, ForEachThreadCtx) — and writes
// through captured shared state without any worker-local index in the
// access path is almost always a data race: either a direct write to a
// captured variable (sum += x) or an indexed write whose index is itself
// captured (out[i] with i from an enclosing range).
//
// Writes whose access path involves at least one closure-local variable
// (parameters like worker/start/end, or derived locals) are treated as
// partitioned and allowed; genuinely synchronized shared writes can carry a
// //lint:ignore goroutine-capture directive naming the lock.
type GoroutineCapture struct {
	// Module is the module path; every module package is covered.
	Module string
}

// spawnFuncs are the sched entry points that run their closure argument on
// worker goroutines.
var spawnFuncs = map[string]bool{
	"Dynamic": true, "DynamicCtx": true, "StaticCtx": true, "ForEachThreadCtx": true,
}

// Name implements Checker.
func (*GoroutineCapture) Name() string { return "goroutine-capture" }

// Doc implements Checker.
func (*GoroutineCapture) Doc() string {
	return "spawned closures must not write captured shared state without a worker-local index partition"
}

// Applies implements Checker.
func (*GoroutineCapture) Applies(string) bool { return true }

// Check implements Checker.
func (c *GoroutineCapture) Check(pkg *Package) []Finding {
	schedPath := c.Module + "/internal/sched"
	var out []Finding
	for _, file := range pkg.Files {
		// First pass: function literals bound to variables, so that
		// `f := func(){...}; go f()` is caught too.
		bound := make(map[types.Object]*ast.FuncLit)
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				fl, ok := rhs.(*ast.FuncLit)
				if !ok || i >= len(as.Lhs) {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					if obj := pkg.Info.Defs[id]; obj != nil {
						bound[obj] = fl
					} else if obj := pkg.Info.Uses[id]; obj != nil {
						bound[obj] = fl
					}
				}
			}
			return true
		})

		seen := make(map[*ast.FuncLit]bool)
		report := func(fl *ast.FuncLit) {
			if !seen[fl] {
				seen[fl] = true
				out = append(out, c.analyze(pkg, fl)...)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				switch fun := n.Call.Fun.(type) {
				case *ast.FuncLit:
					report(fun)
				case *ast.Ident:
					if fl, ok := bound[pkg.Info.Uses[fun]]; ok {
						report(fl)
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				path, name, ok := pkgSelector(pkg.Info, sel)
				if !ok || path != schedPath || !spawnFuncs[name] {
					return true
				}
				for _, arg := range n.Args {
					switch arg := arg.(type) {
					case *ast.FuncLit:
						report(arg)
					case *ast.Ident:
						if fl, ok := bound[pkg.Info.Uses[arg]]; ok {
							report(fl)
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// analyze flags unpartitioned writes to captured state inside the spawned
// closure fl.
func (c *GoroutineCapture) analyze(pkg *Package, fl *ast.FuncLit) []Finding {
	isLocal := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= fl.Pos() && obj.Pos() <= fl.End()
	}
	var out []Finding
	flagWrite := func(target ast.Expr) {
		w := classifyWrite(pkg.Info, target)
		if w.root == nil || isLocal(w.root) {
			return
		}
		for _, idx := range w.indices {
			if refsLocal(pkg.Info, idx, isLocal) {
				return
			}
		}
		if len(w.indices) == 0 {
			out = append(out, pkg.finding(c.Name(), target,
				"spawned closure writes captured variable %s; every concurrent write to shared state is a race — accumulate locally and merge, or partition by worker index", w.root.Name()))
		} else {
			out = append(out, pkg.finding(c.Name(), target,
				"spawned closure writes through captured %s with no worker-local index; partition the output by an index the worker computed (Algorithm 1's race-free invariant)", w.root.Name()))
		}
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				flagWrite(lhs)
			}
		case *ast.IncDecStmt:
			flagWrite(n.X)
		}
		return true
	})
	return out
}

// write describes one assignment target: the root object written through
// and the index/argument expressions along the access path that could
// partition it.
type write struct {
	root    types.Object
	indices []ast.Expr
}

// classifyWrite walks an assignment target down to its root identifier,
// collecting index expressions (out[i]) and call arguments (m.Row(i)[j])
// that may carry a worker-local partition.
func classifyWrite(info *types.Info, e ast.Expr) write {
	var w write
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			w.indices = append(w.indices, t.Index)
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			// A package-qualified global (pkg.Var) roots at the var; a
			// field path (s.f) continues through the receiver.
			if _, _, ok := pkgSelector(info, t); ok {
				w.root = info.Uses[t.Sel]
				return w
			}
			e = t.X
		case *ast.CallExpr:
			// Writing into a call result (m.Row(v)[j] = x) aliases the
			// callee's receiver; the arguments are the partition indices.
			w.indices = append(w.indices, t.Args...)
			e = t.Fun
		case *ast.Ident:
			if obj := info.Uses[t]; obj != nil {
				w.root = obj
			}
			return w
		default:
			return w
		}
	}
}

// refsLocal reports whether expr mentions any object satisfying isLocal.
func refsLocal(info *types.Info, expr ast.Expr, isLocal func(types.Object) bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && isLocal(info.Uses[id]) {
			found = true
		}
		return !found
	})
	return found
}
