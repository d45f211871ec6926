// Package sharedcapture enforces the index-local-state contract of the
// repo's concurrent entry points.
//
// sim.ForEachProgress documents that the closure it receives "must
// write only to index-local state": every worker goroutine may write
// results[i] for its own i, but never a shared accumulator, because
// scheduling order would then leak into the output (and the race
// detector would fire). This analyzer checks closures passed to those
// entry points, its completion hook included:
// a write to a captured variable is only allowed when the left-hand
// side is indexed by something declared inside the closure (the loop
// parameter or a value derived from it). Writes to captured maps are
// always flagged — concurrent map writes race even on distinct keys.
package sharedcapture

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/lint"
)

// concurrentEntryPoints names the functions whose closure arguments run
// on multiple goroutines. Extend this set when mcastsim or sim grow new
// parallel entry points.
var concurrentEntryPoints = map[string]bool{
	"repro/internal/sim.ForEachProgress": true,
}

// Analyzer is the sharedcapture check.
var Analyzer = &lint.Analyzer{
	Name: "sharedcapture",
	Doc: "flag closures passed to sim.ForEachProgress (and other concurrent entry " +
		"points) that write captured variables not indexed by the loop parameter",
	Run: run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || !concurrentEntryPoints[fn.FullName()] {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					checkClosure(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

// calleeFunc resolves the called function, whether spelled pkg.F, F, or
// through parentheses.
func calleeFunc(pass *lint.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

func checkClosure(pass *lint.Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				checkWrite(pass, lit, lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, lit, st.X)
		}
		return true
	})
}

// checkWrite inspects one assignment target inside the closure. The
// write is reported when its root variable is captured from outside the
// closure and no index along the access path is derived from
// closure-local state.
func checkWrite(pass *lint.Pass, lit *ast.FuncLit, lhs ast.Expr) {
	indexedLocally := false
	capturedMap := false
	e := lhs
walk:
	for {
		switch v := e.(type) {
		case *ast.Ident:
			obj := pass.ObjectOf(v)
			vr, ok := obj.(*types.Var)
			if !ok || !capturedBy(lit, vr) {
				return
			}
			if capturedMap {
				pass.Reportf(lhs.Pos(), "closure passed to a concurrent entry point writes captured map %s: concurrent map writes race even on distinct keys", v.Name)
				return
			}
			if !indexedLocally {
				pass.Reportf(lhs.Pos(), "closure passed to a concurrent entry point writes captured variable %s without indexing by the loop parameter; results depend on goroutine scheduling", v.Name)
			}
			return
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			if t := pass.TypeOf(v.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					capturedMap = true
				}
			}
			if mentionsLocal(pass, lit, v.Index) {
				indexedLocally = true
			}
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			break walk
		}
	}
}

// capturedBy reports whether the variable is declared outside the
// closure's source range, i.e. captured by reference.
func capturedBy(lit *ast.FuncLit, v *types.Var) bool {
	return v.Pos() < lit.Pos() || v.Pos() > lit.End()
}

// mentionsLocal reports whether expr references any object declared
// inside the closure (its parameters or locals).
func mentionsLocal(pass *lint.Pass, lit *ast.FuncLit, expr ast.Expr) bool {
	local := false
	ast.Inspect(expr, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.ObjectOf(id)
		if obj == nil {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			local = true
			return false
		}
		return true
	})
	return local
}
