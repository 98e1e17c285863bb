// Package costcharge enforces the simnet cost-model contracts
// interprocedurally, over the call graph:
//
//   - Offloaded closures (Task.Pure bodies, the fn argument of
//     ComputeAsyncKind/ChargeAsync, thunks handed to
//     par.Go/par.Do/par.GoParts) must not REACH the obs telemetry layer or a
//     simulation charge operation through any chain of calls. A thunk may
//     be written inline, bound to a local first (fold := func() { ... };
//     par.Do(fold)), held in a struct field (ev.thunk = func() { ... };
//     par.Go(ev.thunk)), or named as a function or method value; every func
//     literal assigned to the local or field is checked where it is handed
//     over. A closure that delegates to a helper which logs a span is caught
//     as surely as one that logs it itself. Telemetry from pool goroutines
//     lands in wall-clock completion order and breaks event-log
//     determinism; charges from pool goroutines mutate virtual time off the
//     simulation thread and corrupt the cost model.
//
//   - Within one run of straight-line statements, two textually identical
//     charge statements (the same Send/Compute call with the same
//     arguments) account the same bytes or work twice — the copy-paste class
//     of accounting bug; delete the duplicate. Loops are not false
//     positives: a broadcast loop charges once per iteration through a
//     single statement, which is exactly once per message.
//
// Function summaries ("reaches obs", "reaches a charge") are computed
// callee-first over the whole module's call graph, so the reachability
// crosses package boundaries. The telemetry and cost-model layers (obs,
// simnet, des, par) implement the primitives: a call into them is
// classified, never followed, and their own code is not checked. That obs
// itself never charges is held by the import graph instead:
// TestObsImportsNoCostModel in internal/obs fails if obs imports a package
// that charges.
package costcharge

import (
	"go/ast"
	"go/types"
	"strings"

	"mllibstar/internal/analysis"
	"mllibstar/internal/analysis/callgraph"
)

const (
	obsPath    = "mllibstar/internal/obs"
	simnetPath = "mllibstar/internal/simnet"
	desPath    = "mllibstar/internal/des"
	parPath    = "mllibstar/internal/par"
)

// Analyzer is the interprocedural cost-charge check.
var Analyzer = &analysis.Analyzer{
	Name: "costcharge",
	Doc:  "offloaded closures must not reach obs telemetry or simulation charges; no duplicate charge statements",
	Run:  run,
}

// The effects a summary tracks, indices into it.
const (
	reachesObs = iota
	reachesCharge
)

// summary holds, per effect, the witness call chain by which a function
// transitively reaches it, or "" where it does not.
type summary [2]string

// merge adds the effects of o that s lacks, with o's witness chains.
func (s *summary) merge(o summary) bool {
	changed := false
	for i, via := range o {
		if via != "" && s[i] == "" {
			s[i], changed = via, true
		}
	}
	return changed
}

func run(pass *analysis.Pass) error {
	p := callgraph.NewSummaries[summary](callgraph.Build(pass.TypesInfo, pass.Files))
	p.Solve(func(n *callgraph.Node, s *summary) bool {
		changed := false
		for _, c := range n.Calls {
			if s.merge(reach(p, c)) {
				changed = true
			}
		}
		return changed
	})
	for _, pkg := range pass.Pkgs {
		if !primitive(pkg.PkgPath) {
			reportOffloadRoots(pass, p, pkg.Files)
			reportDuplicateCharges(pass, pkg.Files)
		}
	}
	return nil
}

// primitive reports whether the package implements telemetry or the cost
// model: the contracts bind its users, not its own code.
func primitive(pkg string) bool {
	return pkg == obsPath || strings.HasPrefix(pkg, obsPath+"/") || pkg == simnetPath || pkg == desPath || pkg == parPath
}

// classify returns what calling a primitive reaches: a telemetry op
// (anything in obs), a charge op (simnet transfers/computes, des waits), or
// nothing.
func classify(fn *types.Func) (s summary) {
	switch {
	case fn.Pkg() != nil && (fn.Pkg().Path() == obsPath || strings.HasPrefix(fn.Pkg().Path(), obsPath+"/")):
		s[reachesObs] = "obs." + fn.Name()
	case analysis.IsCharge(fn):
		s[reachesCharge] = fn.Name()
	}
	return s
}

// reach returns what a call reaches, its witness chains starting at the
// callee: a primitive's own bit, nothing for the rest of a primitive
// package or for a callee outside the graph, else the callee's summary.
func reach(p *callgraph.Summaries[summary], c callgraph.Call) (s summary) {
	if c.Func != nil {
		if s = classify(c.Func); s != (summary{}) || c.Func.Pkg() != nil && primitive(c.Func.Pkg().Path()) {
			return s
		}
	}
	if c.Callee != nil {
		for i, via := range p.Sums[c.Callee] {
			if via != "" {
				s[i] = chain(c.Callee.Name, via)
			}
		}
	}
	return s
}

// chain prepends a hop to a witness chain, capped so diagnostics stay
// readable on deep call stacks.
func chain(hop, rest string) string {
	if rest == "" {
		return hop
	}
	if strings.Count(rest, " → ") >= 3 {
		return hop + " → …"
	}
	return hop + " → " + rest
}

// reportOffloadRoots finds every closure or function the files hand to a
// pool goroutine and checks what it reaches. A thunk handed over by name
// resolves through every function value the graph saw bound to the
// variable or field.
func reportOffloadRoots(pass *analysis.Pass, p *callgraph.Summaries[summary], files []*ast.File) {
	check := func(at ast.Node, s summary, where string) {
		if s[reachesObs] != "" {
			pass.Reportf(at.Pos(),
				"%s reaches obs telemetry (%s): offloaded code runs on pool goroutines in wall-clock order, so telemetry from it is nondeterministic; emit events from the simulation thread",
				where, s[reachesObs])
		}
		if s[reachesCharge] != "" {
			pass.Reportf(at.Pos(),
				"%s reaches a simulation charge (%s): offloaded code must not consume virtual time or bytes off the simulation thread",
				where, s[reachesCharge])
		}
	}
	checkLit := func(at ast.Node, lit *ast.FuncLit, where string) { check(at, *p.Sums[p.ByLit[lit]], where) }
	checkFunc := func(at ast.Node, fn *types.Func, where string) {
		if node := p.ByFunc[fn]; node != nil && !primitive(fn.Pkg().Path()) {
			check(at, *p.Sums[node], where)
		} else {
			check(at, reach(p, callgraph.Call{Func: fn}), where)
		}
	}
	named := func(arg ast.Expr, id *ast.Ident, where string) {
		if b := p.Bindings[pass.TypesInfo.ObjectOf(id)]; b != nil {
			for _, lit := range b.Lits {
				checkLit(arg, lit, where+" closure "+id.Name)
			}
			for _, fn := range b.Funcs {
				checkFunc(arg, fn, where+" function "+id.Name)
			}
		} else if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok {
			checkFunc(arg, fn, where+" function "+id.Name)
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok && key.Name == "Pure" {
					if lit, ok := ast.Unparen(n.Value).(*ast.FuncLit); ok {
						checkLit(lit, lit, "Task.Pure closure")
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Pure" || i >= len(n.Rhs) {
						continue
					}
					if lit, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit); ok {
						checkLit(lit, lit, "Task.Pure closure")
					}
				}
			case *ast.CallExpr:
				where, ok := offloadCallee(pass, n)
				if !ok {
					return true
				}
				for _, arg := range n.Args {
					switch arg := ast.Unparen(arg).(type) {
					case *ast.FuncLit:
						checkLit(arg, arg, where+" closure")
					case *ast.Ident:
						named(arg, arg, where)
					case *ast.SelectorExpr:
						if _, isSig := pass.TypesInfo.Types[arg].Type.(*types.Signature); isSig {
							named(arg, arg.Sel, where)
						}
					}
				}
			}
			return true
		})
	}
}

// reportDuplicateCharges flags two identical charge statements in one run
// of straight-line statements: the simple statements between two points
// where control can enter or leave. A compound statement (if, for, range,
// switch, select), a label, a branch, a return or a call that never returns
// ends the run; a bare block continues it. Each body, case clause and
// function literal holds runs of its own.
func reportDuplicateCharges(pass *analysis.Pass, files []*ast.File) {
	bare := map[*ast.BlockStmt]bool{} // scanned as part of the enclosing run
	var scan func(list []ast.Stmt, seen map[string]bool) map[string]bool
	scan = func(list []ast.Stmt, seen map[string]bool) map[string]bool {
		for _, st := range list {
			for l, ok := st.(*ast.LabeledStmt); ok; l, ok = st.(*ast.LabeledStmt) {
				seen, st = nil, l.Stmt // a label is a jump target: a run starts at it
			}
			switch st := st.(type) {
			case *ast.BlockStmt:
				bare[st] = true
				seen = scan(st.List, seen)
			case *ast.ExprStmt:
				if terminal(st.X) {
					seen = nil
					continue
				}
				call, ok := ast.Unparen(st.X).(*ast.CallExpr)
				if !ok {
					continue
				}
				if fn := analysis.FuncOf(pass.TypesInfo, call); fn == nil || !analysis.IsCharge(fn) {
					continue
				}
				key := types.ExprString(st.X)
				if seen[key] {
					pass.Reportf(st.Pos(), "duplicate charge %s in the same block accounts the same bytes/work twice", key)
					continue
				}
				if seen == nil {
					seen = map[string]bool{}
				}
				seen[key] = true
			case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.GoStmt, *ast.DeferStmt, *ast.EmptyStmt:
			default:
				seen = nil
			}
		}
		return seen
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				if !bare[n] {
					scan(n.List, nil)
				}
			case *ast.CaseClause:
				scan(n.Body, nil)
			case *ast.CommClause:
				scan(n.Body, nil)
			}
			return true
		})
	}
}

// terminal reports whether the expression statement never returns: a call
// of the panic built-in, os.Exit or log.Fatal*, matched by name.
func terminal(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			return (pkg.Name == "os" && fun.Sel.Name == "Exit") ||
				(pkg.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal"))
		}
	}
	return false
}

// offloadCallee reports whether the call hands its func arguments to pool
// goroutines. ComputeAsyncKind and ChargeAsync are unique to the offload
// API, so they are matched by name alone (the analysistest corpus mirrors
// them without importing the engine).
func offloadCallee(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := analysis.FuncOf(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	if fn.Name() == "ComputeAsyncKind" || fn.Name() == "ChargeAsync" {
		return fn.Name(), true
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == parPath && (fn.Name() == "Go" || fn.Name() == "Do" || fn.Name() == "GoParts") {
		return "par." + fn.Name(), true
	}
	return "", false
}
