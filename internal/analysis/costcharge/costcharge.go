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
//   - Observe-path functions — everything in internal/obs, plus any
//     function or method named Observe* — must
//     never transitively consume simulated time or bytes (des waits, simnet
//     sends/computes/receives): observe-never-charge. An observation that
//     charges would double-account the very cost it reports.
//
//   - Within one basic block, two textually identical charge statements
//     (the same Send/Compute call with the same arguments) account the same
//     bytes or work twice — the copy-paste class of accounting bug; delete
//     the duplicate. Loops are not false positives: a broadcast loop
//     charges once per iteration through a single statement, which is
//     exactly once per message.
//
// Function summaries ("reaches obs", "reaches a charge") are computed
// callee-first over each package's call graph and exported as facts keyed
// by callgraph.FuncID, so the reachability crosses package boundaries: the
// driver analyzes packages in dependency order and a caller package imports
// the summaries of its dependencies instead of re-deriving them.
package costcharge

import (
	"go/ast"
	"go/types"
	"strings"

	"mllibstar/internal/analysis"
	"mllibstar/internal/analysis/callgraph"
	"mllibstar/internal/analysis/cfg"
)

const (
	obsPath    = "mllibstar/internal/obs"
	simnetPath = "mllibstar/internal/simnet"
	desPath    = "mllibstar/internal/des"
	parPath    = "mllibstar/internal/par"
)

// offloadFuncs are the entry points whose func arguments run on pool
// goroutines. The names are unique to the offload API, so they are matched
// by name alone (the analysistest corpus mirrors them without importing the
// engine).
var offloadFuncs = map[string]bool{
	"ComputeAsyncKind": true,
	"ChargeAsync":      true,
}

// uniqueChargeNames are charge operations whose names exist nowhere else in
// the module, matched by name alone so corpora can mirror them. Generic
// names (Send, Compute, Recv, Wait) additionally require the defining
// package to be simnet or des.
var uniqueChargeNames = map[string]bool{
	"ComputeKind":      true,
	"ComputeAsyncKind": true,
	"ChargeAsync":      true,
	"SendPhase":        true,
	"RecvN":            true,
	"WaitUntil":        true,
}

var simnetChargeNames = map[string]bool{
	"Send": true, "Compute": true, "Recv": true,
}

var desChargeNames = map[string]bool{
	"Wait": true, "WaitUntil": true,
}

const name = "costcharge"

// Analyzer is the interprocedural cost-charge check.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "offloaded closures must not reach obs telemetry or simulation charges; observe paths never charge; no duplicate charge statements",
	FactsAll: true,
	Run:      run,
}

// Marks of one function summary.
const (
	reachesObs uint8 = 1 << iota
	reachesCharge
)

// summary says what a function transitively reaches, with one witness call
// chain per bit for the diagnostic.
type summary struct {
	Bits      uint8  `json:"bits"`
	ObsVia    string `json:"obsVia,omitempty"`
	ChargeVia string `json:"chargeVia,omitempty"`
}

func (s *summary) add(bit uint8, via string) bool {
	if s.Bits&bit != 0 {
		return false
	}
	s.Bits |= bit
	if bit == reachesObs {
		s.ObsVia = via
	} else {
		s.ChargeVia = via
	}
	return true
}

func (s *summary) via(bit uint8) string {
	if bit == reachesObs {
		return s.ObsVia
	}
	return s.ChargeVia
}

func run(pass *analysis.Pass) error {
	if p := pass.Pkg.Path(); p == obsPath || p == simnetPath || p == desPath || p == parPath {
		// The telemetry and cost-model layers implement the primitives; the
		// contracts bind their users.
		return nil
	}
	g := callgraph.Build(pass.TypesInfo, pass.Files)
	sums := solve(pass, g)

	// Export each declared function's summary for downstream packages.
	facts := pass.FactStore()
	for _, n := range g.Nodes {
		if n.Fn != nil {
			facts.Export(name, callgraph.FuncID(n.Fn), sums[n])
		}
	}

	reportOffloadRoots(pass, g, sums)
	reportObservePaths(pass, g, sums)
	reportDuplicateCharges(pass, g)
	return nil
}

// solve computes reachability summaries callee-first, iterating recursive
// components to a fixpoint.
func solve(pass *analysis.Pass, g *callgraph.Graph) map[*callgraph.Node]*summary {
	sums := map[*callgraph.Node]*summary{}
	for _, n := range g.Nodes {
		sums[n] = &summary{}
	}
	facts := pass.FactStore()
	callgraph.BottomUp(g, func(n *callgraph.Node) bool {
		s := sums[n]
		changed := false
		for _, c := range n.Calls {
			switch {
			case c.Callee != nil:
				cs := sums[c.Callee]
				for _, bit := range []uint8{reachesObs, reachesCharge} {
					if cs.Bits&bit != 0 && s.add(bit, chain(c.Callee.Name, cs.via(bit))) {
						changed = true
					}
				}
			case c.Remote != nil:
				if bit, name := classify(c.Remote); bit != 0 {
					if s.add(bit, name) {
						changed = true
					}
					continue
				}
				var rs summary
				if facts.Import(name, callgraph.FuncID(c.Remote), &rs) {
					for _, bit := range []uint8{reachesObs, reachesCharge} {
						if rs.Bits&bit != 0 && s.add(bit, chain(remoteName(c.Remote), rs.via(bit))) {
							changed = true
						}
					}
				}
			}
		}
		return changed
	})
	return sums
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

func remoteName(fn *types.Func) string {
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// classify maps a remote callee to the primitive it implements: a telemetry
// op (anything in obs), a charge op (simnet transfers/computes,
// des waits), or neither.
func classify(fn *types.Func) (uint8, string) {
	name := fn.Name()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	switch {
	case pkg == obsPath || strings.HasPrefix(pkg, obsPath+"/"):
		return reachesObs, "obs." + name
	case uniqueChargeNames[name]:
		return reachesCharge, name
	case pkg == simnetPath && simnetChargeNames[name]:
		return reachesCharge, "simnet." + name
	case pkg == desPath && desChargeNames[name]:
		return reachesCharge, "des." + name
	}
	return 0, ""
}

// offloadRoot is one closure or function that will run on a pool goroutine.
type offloadRoot struct {
	pos   ast.Node
	node  *callgraph.Node // in-package body, when visible
	fn    *types.Func     // named function handed over (may be remote)
	where string
}

// reportOffloadRoots finds every offloaded closure and checks its summary.
func reportOffloadRoots(pass *analysis.Pass, g *callgraph.Graph, sums map[*callgraph.Node]*summary) {
	bound := boundLiterals(pass)
	var roots []offloadRoot
	addLit := func(at ast.Node, lit *ast.FuncLit, where string) {
		roots = append(roots, offloadRoot{pos: at, node: g.ByLit[lit], where: where})
	}
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Pure" {
					if lit, ok := ast.Unparen(kv.Value).(*ast.FuncLit); ok {
						addLit(lit, lit, "Task.Pure closure")
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Pure" || i >= len(n.Rhs) {
					continue
				}
				if lit, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit); ok {
					addLit(lit, lit, "Task.Pure closure")
				}
			}
		case *ast.CallExpr:
			name, ok := offloadCallee(pass, n)
			if !ok {
				return true
			}
			for _, arg := range n.Args {
				switch arg := ast.Unparen(arg).(type) {
				case *ast.FuncLit:
					addLit(arg, arg, name+" closure")
				case *ast.Ident:
					if lits := bound[pass.TypesInfo.ObjectOf(arg)]; len(lits) > 0 {
						for _, lit := range lits {
							addLit(arg, lit, name+" closure "+arg.Name)
						}
					} else if fn, ok := pass.TypesInfo.Uses[arg].(*types.Func); ok {
						roots = append(roots, offloadRoot{pos: arg, fn: fn, where: name + " function " + arg.Name})
					}
				case *ast.SelectorExpr:
					if lits := bound[pass.TypesInfo.ObjectOf(arg.Sel)]; len(lits) > 0 {
						for _, lit := range lits {
							addLit(arg, lit, name+" closure "+arg.Sel.Name)
						}
					} else if fn, ok := pass.TypesInfo.Uses[arg.Sel].(*types.Func); ok {
						if _, isSig := pass.TypesInfo.Types[arg].Type.(*types.Signature); isSig {
							roots = append(roots, offloadRoot{pos: arg, fn: fn, where: name + " function " + arg.Sel.Name})
						}
					}
				}
			}
		}
		return true
	})

	facts := pass.FactStore()
	for _, r := range roots {
		var s summary
		switch {
		case r.node != nil:
			s = *sums[r.node]
		case r.fn != nil:
			if node, ok := g.ByFunc[r.fn]; ok {
				s = *sums[node]
			} else if bit, via := classify(r.fn); bit != 0 {
				s.add(bit, via)
			} else {
				facts.Import(name, callgraph.FuncID(r.fn), &s)
			}
		}
		if s.Bits&reachesObs != 0 {
			pass.Reportf(r.pos.Pos(),
				"%s reaches obs telemetry (%s): offloaded code runs on pool goroutines in wall-clock order, so telemetry from it is nondeterministic; emit events from the simulation thread",
				r.where, s.ObsVia)
		}
		if s.Bits&reachesCharge != 0 {
			pass.Reportf(r.pos.Pos(),
				"%s reaches a simulation charge (%s): offloaded code must not consume virtual time or bytes off the simulation thread",
				r.where, s.ChargeVia)
		}
	}
}

// reportObservePaths enforces observe-never-charge on every function or
// method named Observe*.
func reportObservePaths(pass *analysis.Pass, g *callgraph.Graph, sums map[*callgraph.Node]*summary) {
	for _, n := range g.Nodes {
		if n.Fn == nil || !strings.HasPrefix(n.Fn.Name(), "Observe") {
			continue
		}
		if s := sums[n]; s.Bits&reachesCharge != 0 {
			pass.Reportf(n.Decl.Name.Pos(),
				"observe-path function %s transitively consumes simulated time or bytes (%s): observation must never charge",
				n.Name, s.ChargeVia)
		}
	}
}

// reportDuplicateCharges flags two identical charge statements in one basic
// block.
func reportDuplicateCharges(pass *analysis.Pass, g *callgraph.Graph) {
	for _, n := range g.Nodes {
		body := n.Body()
		if body == nil {
			continue
		}
		graph := cfg.New(body)
		for _, b := range graph.Blocks {
			seen := map[string]bool{}
			for _, node := range b.Nodes {
				es, ok := node.(*ast.ExprStmt)
				if !ok {
					continue
				}
				call, ok := ast.Unparen(es.X).(*ast.CallExpr)
				if !ok || !isChargeCall(pass, call) {
					continue
				}
				key := types.ExprString(es.X)
				if seen[key] {
					pass.Reportf(es.Pos(), "duplicate charge %s in the same block accounts the same bytes/work twice", key)
					continue
				}
				seen[key] = true
			}
		}
	}
}

func isChargeCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.FuncOf(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	bit, _ := classify(fn)
	return bit == reachesCharge
}

// boundLiterals maps variables and struct fields to the function literals
// assigned to them, for the named-closure offload styles: fold :=
// func(){…}; par.Do(fold), ev.thunk = func(){…}; par.Go(ev.thunk), and
// &probe{run: func(){…}}. A variable assigned any other expression
// contributes nothing, so only thunks whose body is visible are resolved.
func boundLiterals(pass *analysis.Pass) map[types.Object][]*ast.FuncLit {
	bound := map[types.Object][]*ast.FuncLit{}
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
			bound[obj] = append(bound[obj], lit)
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
		}
		return true
	})
	return bound
}

// offloadCallee reports whether the call hands its func arguments to pool
// goroutines.
func offloadCallee(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := analysis.FuncOf(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	if offloadFuncs[fn.Name()] {
		return fn.Name(), true
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == parPath && (fn.Name() == "Go" || fn.Name() == "Do" || fn.Name() == "GoParts") {
		return "par." + fn.Name(), true
	}
	return "", false
}
