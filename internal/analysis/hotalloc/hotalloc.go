// Package hotalloc enforces allocation-freedom in regions marked
// //lint:hotpath.
//
// The stall-aware wormhole kernel's headline claim — 0 allocs/op in
// steady state (BENCH_kernel.json) — is load-bearing: the experiment
// engine runs millions of Step/StepUntil cycles per figure, and a
// single allocation on the per-flit path turns into GC pressure that
// distorts the latency tables the paper reproduction publishes. The
// claim is protected dynamically by the benchmark gate; this analyzer
// protects it statically, at review time, for every function or
// statement annotated //lint:hotpath.
//
// Inside a hot region the analyzer flags the growth-class allocations:
// append (may grow its backing array), make, map and slice composite
// literals, function literals (closure headers allocate), implicit
// interface boxing at call arguments and assignments, and any call
// into fmt (which both allocates and boxes). Only values that need a
// box count as boxing: a pointer, map, chan, func or unsafe.Pointer is
// stored in the interface word itself, so passing a *T as a handler or
// an event tag is allocation-free and not reported. Struct literals
// such as a pool's &Worm{} miss-path are deliberately not flagged:
// pools must allocate on a miss, and the checks here target per-cycle
// growth, not one-time construction.
//
// Placement: a //lint:hotpath line inside a function's doc comment
// marks the whole body; a standalone //lint:hotpath comment line marks
// the statement immediately below it. A directive attached to nothing
// is itself a diagnostic.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/lint"
)

// Analyzer is the hotalloc check. It applies everywhere: hot regions
// exist only where a //lint:hotpath annotation was deliberately
// placed, so there is no package scope to restrict.
var Analyzer = &lint.Analyzer{
	Name: "hotalloc",
	Doc: "in //lint:hotpath functions and statements, flag append, make, " +
		"map/slice literals, closures, interface boxing, and fmt calls — the " +
		"allocations that would break the kernel's 0 allocs/op steady state",
	Run: run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, region := range hotRegions(pass, f) {
			checkRegion(pass, region)
		}
	}
	return nil
}

// hotRegions resolves every //lint:hotpath directive in f to the AST
// node it marks: the body of the function whose doc comment holds it,
// or the first statement starting after a standalone directive line.
// Dangling directives are reported.
func hotRegions(pass *lint.Pass, f *ast.File) []ast.Node {
	var marks []*ast.Comment
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if isHotpath(c) {
				marks = append(marks, c)
			}
		}
	}
	if len(marks) == 0 {
		return nil
	}
	used := make(map[*ast.Comment]bool)
	var regions []ast.Node
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil || fd.Body == nil {
			continue
		}
		for _, m := range marks {
			if m.Pos() >= fd.Doc.Pos() && m.End() <= fd.Doc.End() {
				used[m] = true
				regions = append(regions, fd.Body)
			}
		}
	}
	for _, m := range marks {
		if used[m] {
			continue
		}
		if stmt := stmtAfter(f, m.End()); stmt != nil {
			regions = append(regions, stmt)
		} else {
			pass.Reportf(m.Pos(), "//lint:hotpath is not attached to a function or statement")
		}
	}
	return regions
}

// isHotpath reports whether c is a hotpath directive. Malformed
// //lint: comments are the lint framework's to report, not ours.
func isHotpath(c *ast.Comment) bool {
	const prefix = "//lint:hotpath"
	if len(c.Text) < len(prefix) || c.Text[:len(prefix)] != prefix {
		return false
	}
	rest := c.Text[len(prefix):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

// stmtAfter returns the statement with the smallest starting position
// after pos, i.e. the statement a standalone directive line annotates.
func stmtAfter(f *ast.File, pos token.Pos) ast.Stmt {
	var best ast.Stmt
	ast.Inspect(f, func(n ast.Node) bool {
		s, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		if s.Pos() > pos && (best == nil || s.Pos() < best.Pos()) {
			best = s
		}
		return true
	})
	return best
}

// checkRegion flags the growth-class allocations inside one hot region.
func checkRegion(pass *lint.Pass, region ast.Node) {
	ast.Inspect(region, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, v)
		case *ast.CompositeLit:
			if t := pass.TypeOf(v); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					pass.Reportf(v.Pos(), "map literal allocates in hot path: hoist it out of the hot region")
				case *types.Slice:
					pass.Reportf(v.Pos(), "slice literal allocates in hot path: hoist it out of the hot region")
				}
			}
		case *ast.FuncLit:
			if name := capturedVar(pass, v); name != "" {
				pass.Reportf(v.Pos(), "function literal in hot path captures %s and allocates a closure: hoist or outline it", name)
			} else {
				pass.Reportf(v.Pos(), "function literal allocates in hot path: hoist or outline it")
			}
		case *ast.AssignStmt:
			checkAssignBoxing(pass, v)
		}
		return true
	})
}

// checkCall flags allocating builtins, fmt calls, and interface boxing
// at argument positions.
func checkCall(pass *lint.Pass, call *ast.CallExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := pass.ObjectOf(fun).(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				pass.Reportf(call.Pos(), "append in hot path can grow its backing array: reserve capacity outside the hot region and write by index")
			case "make":
				pass.Reportf(call.Pos(), "make allocates in hot path: hoist the allocation out of the hot region")
			case "new":
				pass.Reportf(call.Pos(), "new allocates in hot path: hoist the allocation out of the hot region")
			}
			return
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pkgName, ok := pass.ObjectOf(id).(*types.PkgName); ok && pkgName.Imported().Path() == "fmt" {
				pass.Reportf(call.Pos(), "fmt.%s in hot path allocates and boxes its arguments: format on a cold path instead", fun.Sel.Name)
				return // per-argument boxing reports would be noise on top
			}
		}
	}
	// T(x) conversions to an interface type box x.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && boxes(tv.Type, pass.TypeOf(call.Args[0])) {
			pass.Reportf(call.Pos(), "converting %s to interface %s boxes the value in hot path",
				typeName(pass, pass.TypeOf(call.Args[0])), typeName(pass, tv.Type))
		}
		return
	}
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if at := pass.TypeOf(arg); boxes(pt, at) {
			pass.Reportf(arg.Pos(), "passing %s as interface %s boxes the value in hot path",
				typeName(pass, at), typeName(pass, pt))
		}
	}
}

// checkAssignBoxing flags assignments that box a concrete value into
// an existing interface-typed destination.
func checkAssignBoxing(pass *lint.Pass, st *ast.AssignStmt) {
	if st.Tok != token.ASSIGN || len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, lhs := range st.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		lt, rt := pass.TypeOf(lhs), pass.TypeOf(st.Rhs[i])
		if boxes(lt, rt) {
			pass.Reportf(st.Rhs[i].Pos(), "assigning %s to interface %s boxes the value in hot path",
				typeName(pass, rt), typeName(pass, lt))
		}
	}
}

// boxes reports whether storing a value of type from into a location
// of type to allocates an interface box: to is an interface, and from
// is a concrete non-nil type that is not pointer-shaped.
func boxes(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return false
	}
	switch f := from.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false // an interface is copied; the rest fit the interface word
	case *types.Basic:
		return f.Kind() != types.UntypedNil && f.Kind() != types.UnsafePointer
	}
	return true
}

// typeName renders t relative to the analyzed package, keeping
// messages short and stable.
func typeName(pass *lint.Pass, t types.Type) string {
	if t == nil {
		return "<unknown>"
	}
	return types.TypeString(t, types.RelativeTo(pass.Pkg))
}

// capturedVar returns the name of one variable the function literal
// captures from its enclosing scope, or "" when it captures nothing.
func capturedVar(pass *lint.Pass, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.ObjectOf(id).(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == pass.Pkg.Scope() {
			return true // package-level vars are referenced, not captured
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			name = v.Name()
			return false
		}
		return true
	})
	return name
}
