// Package waitleak flags goroutines that nothing ever joins.
//
// The repo's concurrency contract (DESIGN.md, sim.ForEachProgress) is that
// every spawned goroutine has an owner that observes its completion —
// a WaitGroup the spawner Waits on, or a channel the goroutine sends
// on or closes. A goroutine with no visible join can outlive the
// function that spawned it: in a sweep that means work bleeding into
// the next figure's timing; in a test it means the race detector and
// goroutine-leak checks firing on an unrelated case; in the CLIs it
// means output written after the summary. The analyzer also catches
// the classic WaitGroup race of calling wg.Add inside the spawned
// goroutine — if the scheduler delays the goroutine past the spawner's
// Wait, the Add is never counted and Wait returns early.
//
// Only `go` statements launching function literals are examined: a
// named function's joining discipline is its own body's business, and
// flagging every `go m.run()` would punish the encapsulation the
// analyzer wants to encourage.
package waitleak

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/lint"
)

// Analyzer is the waitleak check. It applies repo-wide, tests
// included: leaked goroutines in test helpers are exactly how cross-
// test interference starts.
var Analyzer = &lint.Analyzer{
	Name: "waitleak",
	Doc: "flag go statements whose function literal has no visible join " +
		"(WaitGroup.Done, channel send, or close) and wg.Add calls made " +
		"inside the goroutine they count",
	Run: run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			checkGoroutine(pass, g, lit)
			return true
		})
	}
	return nil
}

func checkGoroutine(pass *lint.Pass, g *ast.GoStmt, lit *ast.FuncLit) {
	joined := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SendStmt:
			joined = true
		case *ast.CallExpr:
			if isBuiltin(pass, v, "close") {
				joined = true
				return true
			}
			method, isWG := waitGroupMethod(pass, v)
			if !isWG {
				return true
			}
			switch method {
			case "Done":
				joined = true
			case "Add":
				pass.Reportf(v.Pos(), "wg.Add inside the spawned goroutine races with Wait: call Add before the go statement")
			}
		}
		return true
	})
	if !joined {
		pass.Reportf(g.Pos(), "goroutine has no visible join (WaitGroup.Done, channel send, or close): it can outlive its spawner and leak")
	}
}

// waitGroupMethod resolves recv.M() calls where recv is a
// sync.WaitGroup (directly or through a pointer/embedded field).
func waitGroupMethod(pass *lint.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	rt := recv.Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Name() != "WaitGroup" {
		return "", false
	}
	return fn.Name(), true
}

func isBuiltin(pass *lint.Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == name
}
