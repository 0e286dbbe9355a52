package lint

import (
	"go/ast"
	"go/types"
)

// CtxPropagation enforces PR 4's cancellation contract at the scheduler
// boundary: once a context.Context has reached a function in the layers
// above the kernels (gnn, dma, graph), fanning work out through the
// uncancellable sched entry points silently severs the cancellation chain —
// a cancelled training run or a timed-out inference request would keep all
// cores busy until the phase finishes. Any call to sched.Dynamic or
// sched.NewCursor from a function that has a context.Context in scope must
// use DynamicCtx / NewCursorCtx and pass the context on.
//
// Functions with no context in scope (pure computational helpers) keep the
// uncancellable forms: the uncancellable fast path is the right default
// when there is nothing to propagate.
type CtxPropagation struct {
	// Module is the module path used to resolve covered packages.
	Module string
}

// ctxPkgs are the orchestration packages between the public API and the
// kernels, where contexts arrive and scheduling decisions are made.
var ctxPkgs = []string{"internal/gnn", "internal/dma", "internal/graph"}

// uncancellableSched maps each non-ctx sched entry point to its ctx variant.
var uncancellableSched = map[string]string{
	"Dynamic":   "DynamicCtx",
	"NewCursor": "NewCursorCtx",
}

// Name implements Checker.
func (*CtxPropagation) Name() string { return "ctx-propagation" }

// Doc implements Checker.
func (*CtxPropagation) Doc() string {
	return "gnn/dma/graph functions with a context.Context in scope must call the sched *Ctx variants, not the uncancellable entry points"
}

// Applies implements Checker.
func (c *CtxPropagation) Applies(importPath string) bool {
	return matchesAny(importPath, c.Module, ctxPkgs)
}

// Check implements Checker.
func (c *CtxPropagation) Check(pkg *Package) []Finding {
	schedPath := c.Module + "/internal/sched"
	var out []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !ctxInScope(pkg.Info, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if path, name, ok := pkgSelector(pkg.Info, sel); ok && path == schedPath {
					if ctxName, banned := uncancellableSched[name]; banned {
						out = append(out, pkg.finding(c.Name(), call,
							"sched.%s with a context.Context in scope severs cancellation; use sched.%s and pass the context", name, ctxName))
					}
				}
				return true
			})
		}
	}
	return out
}

// ctxInScope reports whether any value of type context.Context is visible
// inside fd: a parameter, a local definition (including closure parameters
// declared within), or a field access like opts.Ctx whose type is
// context.Context.
func ctxInScope(info *types.Info, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj, ok := info.Defs[n]; ok && obj != nil && isContextType(obj.Type()) {
				found = true
			}
			if obj, ok := info.Uses[n]; ok && obj != nil && isContextType(obj.Type()) {
				found = true
			}
		case *ast.SelectorExpr:
			if tv, ok := info.Types[ast.Expr(n)]; ok && tv.Type != nil && isContextType(tv.Type) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
