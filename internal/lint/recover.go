package lint

import (
	"go/ast"
	"strings"
)

// GoroutineRecover enforces the module's panic-containment topology: library
// packages may only spawn goroutines through internal/sched, whose workers
// run under a deferred recover that captures panics into *sched.WorkerError.
// A direct `go func` anywhere else creates a goroutine whose panic kills the
// whole process, bypassing the fault-tolerant execution layer that the
// public API's error contract depends on.
//
// internal/sched itself is exempt (it is the containment point), as are the
// main packages under cmd/ and examples/ (process-lifetime helpers such as
// signal listeners are fine there — a panic in main-package code was always
// fatal). Tests are not loaded by the lint driver, so test-only goroutines
// are unaffected. A deliberate exception in library code can carry a
// //lint:ignore goroutine-recover directive naming its recovery story.
type GoroutineRecover struct {
	// Module is the module path used to resolve exempt packages.
	Module string
}

// Name implements Checker.
func (*GoroutineRecover) Name() string { return "goroutine-recover" }

// Doc implements Checker.
func (*GoroutineRecover) Doc() string {
	return "library packages must spawn goroutines through internal/sched so panics are contained"
}

// Applies implements Checker.
func (c *GoroutineRecover) Applies(importPath string) bool {
	if importPath == c.Module+"/internal/sched" {
		return false
	}
	for _, exempt := range []string{"/cmd/", "/examples/"} {
		if strings.Contains(importPath+"/", c.Module+exempt) {
			return false
		}
	}
	return true
}

// Check implements Checker.
func (c *GoroutineRecover) Check(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				out = append(out, pkg.finding(c.Name(), g,
					"go statement outside internal/sched: spawn workers via sched.Dynamic/DynamicCtx/StaticCtx/ForEachThreadCtx so a panic becomes a *sched.WorkerError instead of killing the process"))
			}
			return true
		})
	}
	return out
}
