// Package buflife is the flow-sensitive buffer-lifetime analyzer for the
// engine's vector pool (vec.Pool, engine.Context.GetVec/PutVec). It runs a
// forward may-dataflow over each function's CFG, tracking which locals hold
// a pooled buffer (bound from GetVec/Get, from the non-clearing Pool.Copy, or
// from a callee known to return one) and which have been retired by
// PutVec/Put, and reports:
//
//   - use-after-Put: any read of a buffer on some path after the pool took
//     it back — including reads after a Put inside a nested branch, behind
//     defer, or inside a callee;
//   - double-Put: a second Put of the same buffer, including one performed
//     by a deferred call at function exit;
//   - escape of a live pooled buffer into longer-lived state (a struct
//     field or package variable): after the eventual PutVec that state
//     would alias recycled memory. Storing into a local slice or map is NOT
//     flagged — the SVRG step parks per-task partials in a local slice
//     between its pure and Run closures, which is ownership-preserving;
//   - capture-after-Put: a closure created at a point where a captured
//     buffer is already retired will read recycled memory whenever it runs.
//
// Returning a pooled buffer is legal — the pool contract (engine/agg.go)
// makes a return an ownership transfer — so instead of flagging returns the
// analyzer records it in the function's summary and marks the caller's
// binding as pooled. A function that retires a parameter records that too,
// so a helper that Puts a buffer kills the caller's binding; the summaries
// are solved over the whole module's call graph, so both cross packages.
package buflife

import (
	"go/ast"
	"go/types"

	"mllibstar/internal/analysis"
	"mllibstar/internal/analysis/callgraph"
	"mllibstar/internal/analysis/taint"
)

// Analyzer is the flow-sensitive pooled-buffer lifetime check.
var Analyzer = &analysis.Analyzer{
	Name: "buflife",
	Doc:  "flow-sensitive GetVec/PutVec lifetimes: use-after-Put, double-Put, escapes of pooled buffers into long-lived state",
	DefaultScope: []string{
		"mllibstar/internal/allreduce",
		"mllibstar/internal/angel",
		"mllibstar/internal/causal",
		"mllibstar/internal/core",
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

const (
	pooled taint.Marks = 1 << iota // holds a buffer owned by this function
	dead                           // retired by Put: the pool owns it again
)

// summary is one function's lifetime contract.
type summary struct {
	// puts marks the parameters the function may retire (pass to Put on
	// some path).
	puts []bool
	// returnsPooled reports that some result may be a pooled buffer, whose
	// ownership transfers to the caller.
	returnsPooled bool
}

func run(pass *analysis.Pass) error {
	a := &analyzer{pass: pass, prog: callgraph.NewSummaries[summary](pass.Program())}
	a.prog.Solve(a.summarize)
	for _, n := range a.prog.Nodes {
		a.report(n)
	}
	return nil
}

type analyzer struct {
	pass *analysis.Pass
	prog *callgraph.Summaries[summary]
}

// problem builds the dataflow instance for one function node.
func (a *analyzer) problem(n *callgraph.Node) *taint.Problem {
	return &taint.Problem{
		Graph:    a.prog.CFG[n],
		Transfer: func(nd ast.Node, st taint.State) { a.transfer(nd, st) },
	}
}

func (a *analyzer) transfer(n ast.Node, st taint.State) {
	if d, ok := taint.IsDeferredExec(n); ok {
		a.applyCalls(d.Call, st)
		return
	}
	switch n := n.(type) {
	case *ast.DeferStmt:
		// Registration has no effect; the call runs at exit.
	case *ast.RangeStmt:
		a.applyCalls(n.X, st)
		st.Bind(a.pass.TypesInfo, n.Key, 0)
		st.Bind(a.pass.TypesInfo, n.Value, 0)
	default:
		a.applyCalls(n, st)
		// Only ownership propagates through binding (a variable is never
		// born dead), and rebinding revives a retired name.
		taint.Assigns(n, func(lhs, rhs ast.Expr) { st.Bind(a.pass.TypesInfo, lhs, a.markOf(rhs, st)&pooled) })
	}
}

// markOf computes the lifetime marks of an expression's value.
func (a *analyzer) markOf(e ast.Expr, st taint.State) taint.Marks {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := a.pass.TypesInfo.Uses[e]; obj != nil {
			return st.Get(obj)
		}
	case *ast.SliceExpr:
		return a.markOf(e.X, st)
	case *ast.CallExpr:
		if a.isGetCall(e) {
			return pooled
		}
		sums, _ := a.prog.Callees(e)
		for _, s := range sums {
			if s.returnsPooled {
				return pooled
			}
		}
	}
	return 0
}

// applyCalls applies the kill effects of every call in the subtree: Put
// primitives and callees that retire their parameters. Nested function
// literals are opaque values.
func (a *analyzer) applyCalls(n ast.Node, st taint.State) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := a.putArg(call); obj != nil {
			st.Add(obj, dead)
			return true
		}
		for _, obj := range a.retiredArgs(call) {
			st.Add(obj, dead)
		}
		return true
	})
}

// putArg recognizes a pool-retire primitive — a method call named Put or
// PutVec whose single argument is a float-slice identifier — and returns
// the retired object.
func (a *analyzer) putArg(call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Put" && sel.Sel.Name != "PutVec") || len(call.Args) != 1 {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := a.pass.TypesInfo.Uses[id]
	if obj == nil || !analysis.IsFloatSlice(obj.Type()) {
		return nil
	}
	return obj
}

// isGetCall recognizes a pool-acquire primitive: a method call named Get,
// GetVec or Copy whose result is a float slice. Copy must be a method — the
// pool's acquire-and-fill — because the package-level vec.Copy is the plain
// allocation the escape diagnostics recommend.
func (a *analyzer) isGetCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Get", "GetVec":
	case "Copy":
		if a.pass.TypesInfo.Selections[sel] == nil {
			return false
		}
	default:
		return false
	}
	tv, ok := a.pass.TypesInfo.Types[call]
	return ok && analysis.IsFloatSlice(tv.Type)
}

// retiredArgs returns the identifiers a call's callees retire.
func (a *analyzer) retiredArgs(call *ast.CallExpr) []types.Object {
	var out []types.Object
	sums, _ := a.prog.Callees(call)
	for _, s := range sums {
		for i, put := range s.puts {
			if !put || i >= len(call.Args) {
				continue
			}
			if id, ok := ast.Unparen(call.Args[i]).(*ast.Ident); ok {
				if obj := a.pass.TypesInfo.Uses[id]; obj != nil {
					out = append(out, obj)
				}
			}
		}
	}
	return out
}

// summarize recomputes one node's contract for the fixpoint, reporting
// change.
func (a *analyzer) summarize(n *callgraph.Node, s *summary) bool {
	params := n.Params(a.pass.TypesInfo)
	if s.puts == nil {
		s.puts = make([]bool, len(params))
	}
	changed := false
	retire := func(obj types.Object) {
		for i, p := range params {
			if p == obj && !s.puts[i] {
				s.puts[i] = true
				changed = true
			}
		}
	}
	// Which parameters may this function retire, directly or via a callee?
	for _, c := range n.Calls {
		if obj := a.putArg(c.Site); obj != nil {
			retire(obj)
			continue
		}
		for _, obj := range a.retiredArgs(c.Site) {
			retire(obj)
		}
	}

	if !s.returnsPooled {
		pr := a.problem(n)
		pr.Replay(pr.Solve(), func(nd ast.Node, st taint.State) {
			if ret, ok := nd.(*ast.ReturnStmt); ok {
				for _, res := range ret.Results {
					if a.markOf(res, st)&pooled != 0 {
						s.returnsPooled = true
					}
				}
			}
		})
		changed = changed || s.returnsPooled
	}
	return changed
}

// report replays one function's dataflow with diagnostics enabled.
func (a *analyzer) report(n *callgraph.Node) {
	pr := a.problem(n)
	in := pr.Solve()
	pr.Replay(in, func(nd ast.Node, st taint.State) {
		if d, ok := taint.IsDeferredExec(nd); ok {
			a.checkPuts(d.Call, st)
			return
		}
		switch nd := nd.(type) {
		case *ast.DeferStmt:
			// Effects and diagnostics belong to the exit replay.
		case *ast.RangeStmt:
			// The head block holds the whole RangeStmt; the body statements
			// are visited as their own nodes with their own (correct) states,
			// so only the range operand is checked here.
			a.checkUses(nd.X, st)
		case *ast.AssignStmt:
			for i, rhs := range nd.Rhs {
				a.checkUses(rhs, st)
				if i < len(nd.Lhs) {
					a.checkEscape(nd.Lhs[i], rhs, st)
				}
			}
			for _, lhs := range nd.Lhs {
				if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
					a.checkUses(lhs, st)
				}
			}
		default:
			a.checkUses(nd, st)
		}
	})
}

// checkUses reports reads of retired buffers, double-Puts, and captures of
// retired buffers by closures, inside one node.
func (a *analyzer) checkUses(n ast.Node, st taint.State) {
	if n == nil {
		return
	}
	// Put sites are diagnosed as double-Puts, not as plain reads.
	putIdents := map[*ast.Ident]bool{}
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := c.(*ast.CallExpr); ok && a.putArg(call) != nil {
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				putIdents[id] = true
			}
		}
		return true
	})
	a.checkPuts(n, st)
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			a.checkCapture(c, st)
			return false
		case *ast.Ident:
			if putIdents[c] {
				return true
			}
			if obj := a.pass.TypesInfo.Uses[c]; obj != nil && st.Get(obj)&dead != 0 {
				a.pass.Reportf(c.Pos(),
					"use of pooled buffer %s after Put on some path; the pool owns it and may hand it to another task", obj.Name())
			}
		}
		return true
	})
}

// checkPuts reports double-Puts inside one subtree (also used alone for the
// deferred replay, where only the Put itself is executing).
func (a *analyzer) checkPuts(n ast.Node, st taint.State) {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := a.putArg(call); obj != nil && st.Get(obj)&dead != 0 {
			a.pass.Reportf(call.Pos(), "double Put of pooled buffer %s on some path; the pool already owns it", obj.Name())
		}
		return true
	})
}

// checkCapture flags closures created while a captured buffer is already
// retired: whenever the closure later runs, it reads recycled memory.
func (a *analyzer) checkCapture(lit *ast.FuncLit, st taint.State) {
	ast.Inspect(lit.Body, func(c ast.Node) bool {
		id, ok := c.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := a.pass.TypesInfo.Uses[id]; obj != nil && st.Get(obj)&dead != 0 {
			a.pass.Reportf(lit.Pos(),
				"closure captures pooled buffer %s after Put; when the closure runs it will read recycled memory", obj.Name())
			return false
		}
		return true
	})
}

// checkEscape flags a live pooled buffer stored into longer-lived state.
func (a *analyzer) checkEscape(lhs, rhs ast.Expr, st taint.State) {
	if a.markOf(rhs, st)&pooled == 0 {
		return
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		a.pass.Reportf(rhs.Pos(),
			"pooled buffer stored into field %s outlives its PutVec; copy it (vec.Copy) or keep it function-local", l.Sel.Name)
	case *ast.Ident:
		if obj := a.pass.TypesInfo.ObjectOf(l); obj != nil && analysis.IsPackageVar(obj) {
			a.pass.Reportf(rhs.Pos(),
				"pooled buffer stored into package variable %s outlives its PutVec; copy it (vec.Copy) or keep it function-local", l.Name)
		}
	}
}
