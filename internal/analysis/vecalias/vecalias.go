// Package vecalias implements the buffer-ownership lint for the numeric
// kernels: a dense model vector ([]float64 or any named type over it) that a
// function *receives* must not silently become part of the function's
// result or of longer-lived state, and one buffer must never be handed to
// two sides of a simulated exchange.
//
// The invariant exists because the engine simulates k executors inside one
// address space: what production Spark would serialize onto the wire is
// passed here as live slice headers. If a "worker" stores the driver's
// model slice instead of copying it, two simulated machines now share one
// buffer, and a later in-place update silently corrupts the other side's
// model — the exact class of bug that would invalidate the model-averaging
// results this repository exists to reproduce.
//
// Flagged patterns, for float-slice parameters p of a function or literal:
//
//   - return p                  (result aliases caller-owned memory)
//   - return p[i:j]             (ditto, through a reslice)
//   - s.Field = p, pkgVar = p   (parameter escapes into longer-lived state)
//   - xs[i] = p, m[k] = p       (parameter escapes into a collection)
//   - append(xs, p)             (ditto)
//
// and, at any call site, the same float-slice expression passed twice to
// one call (two "machines" receiving one buffer). Copy with vec.Copy (or
// append([]float64(nil), p...), or a pool's acquire-and-fill Pool.Copy when
// the copy rides a message) to transfer ownership; genuinely shared
// read-only buffers can be annotated //mlstar:nolint vecalias. The
// buffer-pool lifetimes (use after Put, double Put) are the buflife
// analyzer's.
package vecalias

import (
	"go/ast"
	"go/types"

	"mllibstar/internal/analysis"
)

// Analyzer is the buffer-ownership check.
var Analyzer = &analysis.Analyzer{
	Name: "vecalias",
	Doc:  "forbid returning or storing received float-slice buffers without copying, and passing one buffer to two sides of a call",
	DefaultScope: []string{
		"mllibstar/internal/allreduce",
		"mllibstar/internal/angel",
		"mllibstar/internal/engine",
		"mllibstar/internal/lbfgs",
		"mllibstar/internal/mavg",
		"mllibstar/internal/mllib",
		"mllibstar/internal/opt",
		"mllibstar/internal/petuum",
		"mllibstar/internal/ps",
		"mllibstar/internal/train",
		"mllibstar/internal/vec",
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				checkFunc(pass, n.Type, n.Body)
			}
		case *ast.FuncLit:
			checkFunc(pass, n.Type, n.Body)
		case *ast.CallExpr:
			checkDuplicateArgs(pass, n)
		}
		return true
	})
	return nil
}

// checkFunc flags escapes of float-slice parameters out of one function.
// Nested function literals are walked by the outer Inspect with their own
// parameter sets; here they are skipped so each parameter is attributed to
// the function that declared it. (A literal capturing the enclosing
// function's parameter and leaking it is out of scope for this analyzer.)
func checkFunc(pass *analysis.Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	params := floatSliceParams(pass, ftype)
	if len(params) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if p := paramOf(pass, params, res); p != nil {
					pass.Reportf(res.Pos(),
						"returning parameter %s aliases the caller's buffer; copy it (vec.Copy) before returning", p.Name())
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				p := paramOf(pass, params, rhs)
				if p == nil {
					continue
				}
				if i < len(n.Lhs) && escapes(pass, n.Lhs[i]) {
					pass.Reportf(rhs.Pos(),
						"storing parameter %s without copying lets two owners share one buffer; copy it (vec.Copy) before storing", p.Name())
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && len(n.Args) >= 2 && n.Ellipsis == 0 {
				for _, arg := range n.Args[1:] {
					if p := paramOf(pass, params, arg); p != nil {
						pass.Reportf(arg.Pos(),
							"appending parameter %s stores the caller's buffer into a collection; copy it (vec.Copy) first", p.Name())
					}
				}
			}
		}
		return true
	})
}

// floatSliceParams returns the parameter objects of ftype whose type is a
// float slice.
func floatSliceParams(pass *analysis.Pass, ftype *ast.FuncType) map[types.Object]bool {
	params := map[types.Object]bool{}
	if ftype.Params == nil {
		return params
	}
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj != nil && analysis.IsFloatSlice(obj.Type()) {
				params[obj] = true
			}
		}
	}
	return params
}

// paramOf reports which tracked parameter the expression aliases: the
// parameter itself or a reslice of it. Copies (append, calls) break the
// alias and return nil.
func paramOf(pass *analysis.Pass, params map[types.Object]bool, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil && params[obj] {
			return obj
		}
	case *ast.SliceExpr:
		return paramOf(pass, params, e.X)
	}
	return nil
}

// escapes reports whether assigning to lhs publishes the value beyond the
// function's own locals: struct fields, slice/map elements, dereferences,
// and package-level variables all escape; plain local variables do not.
func escapes(pass *analysis.Pass, lhs ast.Expr) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		if o := pass.TypesInfo.ObjectOf(lhs); o != nil {
			return analysis.IsPackageVar(o)
		}
	}
	return false
}

// checkDuplicateArgs flags one float-slice expression passed twice to the
// same call — two simulated machines handed the same buffer.
func checkDuplicateArgs(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) < 2 {
		return
	}
	seen := map[string]ast.Expr{}
	for _, arg := range call.Args {
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || !analysis.IsFloatSlice(tv.Type) {
			continue
		}
		key := exprKey(pass, arg)
		if key == "" {
			continue
		}
		if _, dup := seen[key]; dup {
			pass.Reportf(arg.Pos(),
				"same buffer %s passed twice to one call; the two sides will alias — pass a copy (vec.Copy)", key)
			continue
		}
		seen[key] = arg
	}
}

// exprKey canonicalizes an argument for duplicate detection: identifiers
// resolve through their object (so shadowing does not fool it), selector
// chains by their printed path. Anything else (calls, composites, slicing)
// is not tracked.
func exprKey(pass *analysis.Pass, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil {
			return obj.Name()
		}
	case *ast.SelectorExpr:
		if base := exprKey(pass, e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	}
	return ""
}
