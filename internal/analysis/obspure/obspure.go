// Package obspure implements the telemetry-purity lint: code offloaded to
// the deterministic compute pool must not touch the obs telemetry layer.
//
// Offloaded closures — Task.Pure bodies, the fn argument of
// ComputeAsyncKind/ChargeAsync, and thunks handed to
// par.Go/par.Do — run on worker goroutines whose interleaving is
// scheduler-dependent. The obs sink is mutex-protected, so an obs call from
// such a closure would not race, but it would append events in wall-clock
// completion order and break the event log's determinism (and with it the
// replay, golden-file, and parity guarantees). Telemetry must be emitted
// from the simulation thread, where virtual time is well defined; the
// analyzer enforces that statically instead of leaving it to code review.
//
// Closures reach the offload entry points three ways: as literal arguments
// (par.Do(func() { ... })); as named locals bound first and handed over by
// identifier — the style the pipelined AllReduce scheduler uses
// (fold := func() { ... }; h := par.Do(fold)); and as selectors — a struct
// field holding the thunk (ev.thunk = func() { ... }; par.Go(ev.thunk)) or a
// method value (par.Go(ev.evaluate)), the natural shapes for a thunk built
// once and submitted many times. The analyzer resolves all of them within
// the package: every func literal assigned to the identifier or field, and
// the body of the function or method named, is checked where it is passed
// to an offload call.
package obspure

import (
	"go/ast"
	"go/types"

	"mllibstar/internal/analysis"
)

// obsPath is the package whose calls are forbidden in offloaded closures.
const obsPath = "mllibstar/internal/obs"

// parPath is the compute pool package whose Go/Do accept offloaded thunks.
const parPath = "mllibstar/internal/par"

// offloadFuncs are the method/function names whose func-literal arguments
// execute on pool goroutines. The names are unique to the offload API, so
// matching by name (plus package for par.Go/par.Do, whose names are
// generic) keeps the check robust across the engine and simnet layers.
var offloadFuncs = map[string]bool{
	"ComputeAsyncKind": true,
	"ChargeAsync":      true,
}

// Analyzer is the telemetry-purity check.
var Analyzer = &analysis.Analyzer{
	Name: "obspure",
	Doc:  "forbid obs telemetry calls inside offloaded closures (Task.Pure, ComputeAsyncKind, par.Go/Do)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg != nil && pass.Pkg.Path() == obsPath {
		return nil // the telemetry package may of course call itself
	}
	bound := boundBodies(pass)
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			// Task{Pure: func() float64 { ... }} and friends.
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Pure" {
					if lit, ok := ast.Unparen(kv.Value).(*ast.FuncLit); ok {
						checkOffloaded(pass, lit.Body, "Task.Pure closure")
					}
				}
			}
		case *ast.AssignStmt:
			// t.Pure = func() float64 { ... }
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Pure" || i >= len(n.Rhs) {
					continue
				}
				if lit, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit); ok {
					checkOffloaded(pass, lit.Body, "Task.Pure closure")
				}
			}
		case *ast.CallExpr:
			name, isOffload := offloadCallee(pass, n)
			if !isOffload {
				return true
			}
			for _, arg := range n.Args {
				switch arg := ast.Unparen(arg).(type) {
				case *ast.FuncLit:
					checkOffloaded(pass, arg.Body, name+" closure")
				case *ast.Ident:
					// fold := func() { ... }; par.Do(fold) — the named-
					// closure style of the pipeline scheduler. Check every
					// body ever bound to that identifier.
					for _, body := range bound[pass.TypesInfo.ObjectOf(arg)] {
						checkOffloaded(pass, body, name+" closure "+arg.Name)
					}
				case *ast.SelectorExpr:
					// par.Go(ev.thunk), par.Go(ev.evaluate): a field
					// holding the thunk, or a method value.
					for _, body := range bound[pass.TypesInfo.ObjectOf(arg.Sel)] {
						checkOffloaded(pass, body, name+" closure "+arg.Sel.Name)
					}
				}
			}
		}
		return true
	})
	return nil
}

// boundBodies maps each object that can name an offloaded thunk to the
// function bodies it may stand for: a variable or struct field to the func
// literals assigned to it (fold := func() { ... }, fold = func() { ... },
// var declarations with initializers, ev.thunk = func() { ... }, and
// T{thunk: func() { ... }}), a function or method to its declaration.
// Conservative by construction: a variable assigned through any other
// expression contributes nothing, so only thunks whose body is visible in
// the package are checked.
func boundBodies(pass *analysis.Pass) map[types.Object][]*ast.BlockStmt {
	bound := map[types.Object][]*ast.BlockStmt{}
	record := func(lhs, rhs ast.Expr) {
		var id *ast.Ident
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			id = lhs
		case *ast.SelectorExpr:
			id = lhs.Sel
		default:
			return
		}
		lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
		if !ok {
			return
		}
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
			bound[obj] = append(bound[obj], lit.Body)
		}
	}
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i := range n.Lhs {
				if i < len(n.Rhs) {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i := range n.Names {
				if i < len(n.Values) {
					record(n.Names[i], n.Values[i])
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					record(kv.Key, kv.Value)
				}
			}
		case *ast.FuncDecl:
			if obj := pass.TypesInfo.ObjectOf(n.Name); obj != nil && n.Body != nil {
				bound[obj] = append(bound[obj], n.Body)
			}
		}
		return true
	})
	return bound
}

// offloadCallee reports whether call hands func-literal arguments to pool
// goroutines, returning a human-readable callee name for the diagnostic.
func offloadCallee(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := analysis.FuncOf(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	if offloadFuncs[fn.Name()] {
		return fn.Name(), true
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == parPath && (fn.Name() == "Go" || fn.Name() == "Do") {
		return "par." + fn.Name(), true
	}
	return "", false
}

// checkOffloaded reports every outermost obs call in the offloaded body.
// Chained calls like obs.Active().Meta(...) yield one diagnostic, on the
// outer call; nested closures inside the body are offloaded transitively
// and are walked too.
func checkOffloaded(pass *analysis.Pass, body *ast.BlockStmt, where string) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.FuncOf(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsPath {
			return true
		}
		pass.Reportf(call.Pos(),
			"obs.%s called inside %s: offloaded code runs on pool goroutines in wall-clock order, so telemetry from it is nondeterministic; emit events from the simulation thread instead",
			fn.Name(), where)
		return false // the receiver chain is part of the reported call
	})
}
