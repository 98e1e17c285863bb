// Package buflife is the flow-sensitive buffer-lifetime analyzer for the
// engine's vector pool (vec.Pool, engine.Context.GetVec/PutVec). It runs a
// forward may-dataflow over each function's CFG, tracking which locals hold
// a pooled buffer (bound from GetVec/Get, from the non-clearing Pool.Copy, or
// from a callee known to return one) and which have been retired by
// PutVec/Put, and reports:
//
//   - use-after-Put: any read of a buffer on some path after the pool took
//     it back — including reads after a Put inside a nested branch, which
//     the older statement-list-scoped vecalias check could not see;
//   - double-Put: a second Put of the same buffer, including one performed
//     by a deferred call at function exit (with a fix deleting a duplicate
//     Put statement);
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
// analyzer exports a ReturnsPooled fact and marks the caller's binding as
// pooled. Callees that retire their arguments export a PutsParams fact, so
// a helper that Puts a buffer kills the caller's binding too; both facts
// cross package boundaries via the driver's dependency-ordered fact store.
package buflife

import (
	"go/ast"
	"go/types"

	"mllibstar/internal/analysis"
	"mllibstar/internal/analysis/callgraph"
	"mllibstar/internal/analysis/cfg"
	"mllibstar/internal/analysis/taint"
)

const name = "buflife"

// Analyzer is the flow-sensitive pooled-buffer lifetime check.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "flow-sensitive GetVec/PutVec lifetimes: use-after-Put, double-Put, escapes of pooled buffers into long-lived state",
	FactsAll: true,
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

// summary is one function's exported lifetime contract.
type summary struct {
	// PutsParams lists the indices of float-slice parameters the function
	// may retire (pass to Put on some path).
	PutsParams []int `json:"putsParams,omitempty"`
	// ReturnsPooled reports that some result may be a pooled buffer, whose
	// ownership transfers to the caller.
	ReturnsPooled bool `json:"returnsPooled,omitempty"`
}

func run(pass *analysis.Pass) error {
	g := callgraph.Build(pass.TypesInfo, pass.Files)
	a := &analyzer{
		pass:   pass,
		graph:  g,
		sums:   map[*callgraph.Node]*summary{},
		remote: map[*types.Func]*summary{},
		bySite: map[*ast.CallExpr][]callgraph.Call{},
		cfgs:   map[*callgraph.Node]*cfg.Graph{},
	}
	for _, n := range g.Nodes {
		a.sums[n] = &summary{}
		for _, c := range n.Calls {
			a.bySite[c.Site] = append(a.bySite[c.Site], c)
		}
		if body := n.Body(); body != nil {
			a.cfgs[n] = cfg.New(body)
		}
	}

	callgraph.BottomUp(g, func(n *callgraph.Node) bool { return a.summarize(n) })

	facts := pass.FactStore()
	for _, n := range g.Nodes {
		if n.Fn != nil {
			facts.Export(name, callgraph.FuncID(n.Fn), a.sums[n])
		}
	}

	for _, n := range g.Nodes {
		a.report(n)
	}
	return nil
}

type analyzer struct {
	pass   *analysis.Pass
	graph  *callgraph.Graph
	sums   map[*callgraph.Node]*summary
	remote map[*types.Func]*summary
	bySite map[*ast.CallExpr][]callgraph.Call
	cfgs   map[*callgraph.Node]*cfg.Graph
}

// calleeSummaries resolves a call site to the lifetime summaries of its
// possible targets (in-package nodes live, remote ones via facts).
func (a *analyzer) calleeSummaries(call *ast.CallExpr) []*summary {
	var out []*summary
	for _, c := range a.bySite[call] {
		switch {
		case c.Callee != nil:
			out = append(out, a.sums[c.Callee])
		case c.Remote != nil:
			s, ok := a.remote[c.Remote]
			if !ok {
				s = &summary{}
				a.pass.FactStore().Import(name, callgraph.FuncID(c.Remote), s)
				a.remote[c.Remote] = s
			}
			out = append(out, s)
		}
	}
	return out
}

// problem builds the dataflow instance for one function node.
func (a *analyzer) problem(n *callgraph.Node) *taint.Problem {
	return &taint.Problem{
		Graph:    a.cfgs[n],
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
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			a.applyCalls(rhs, st)
		}
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Lhs {
				a.bind(n.Lhs[i], a.markOf(n.Rhs[i], st), st)
			}
		} else if len(n.Rhs) == 1 {
			m := a.markOf(n.Rhs[0], st)
			for _, lhs := range n.Lhs {
				a.bind(lhs, m, st)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						a.applyCalls(vs.Values[i], st)
						a.bind(name, a.markOf(vs.Values[i], st), st)
					}
				}
			}
		}
	case *ast.RangeStmt:
		a.applyCalls(n.X, st)
		a.bind(n.Key, 0, st)
		a.bind(n.Value, 0, st)
	default:
		a.applyCalls(n, st)
	}
}

// bind rebinds one assignment target: an identifier takes the new marks (a
// strong update — rebinding revives a retired name); other targets are left
// to the escape check in the report pass.
func (a *analyzer) bind(lhs ast.Expr, m taint.Marks, st taint.State) {
	if lhs == nil {
		return
	}
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if obj := a.pass.TypesInfo.ObjectOf(id); obj != nil {
		// Only ownership (pooled) propagates through binding; a variable
		// can never be born dead.
		st.Set(obj, m&pooled)
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
		for _, s := range a.calleeSummaries(e) {
			if s.ReturnsPooled {
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
		for _, s := range a.calleeSummaries(call) {
			for _, idx := range s.PutsParams {
				if idx >= len(call.Args) {
					continue
				}
				if id, ok := ast.Unparen(call.Args[idx]).(*ast.Ident); ok {
					if obj := a.pass.TypesInfo.Uses[id]; obj != nil {
						st.Add(obj, dead)
					}
				}
			}
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

// summarize recomputes one node's exported contract, reporting change (the
// BottomUp fixpoint driver).
func (a *analyzer) summarize(n *callgraph.Node) bool {
	body := n.Body()
	if body == nil {
		return false
	}
	s := a.sums[n]

	params := map[types.Object]int{}
	if n.Decl != nil && n.Decl.Type.Params != nil {
		i := 0
		for _, f := range n.Decl.Type.Params.List {
			for _, name := range f.Names {
				if obj := a.pass.TypesInfo.Defs[name]; obj != nil {
					params[obj] = i
				}
				i++
			}
		}
	}

	changed := false
	puts := map[int]bool{}
	for _, idx := range s.PutsParams {
		puts[idx] = true
	}
	// Which parameters may this function retire, directly or via a callee?
	for _, c := range n.Calls {
		if obj := a.putArg(c.Site); obj != nil {
			if idx, ok := params[obj]; ok && !puts[idx] {
				puts[idx] = true
				changed = true
			}
			continue
		}
		for _, cs := range a.calleeSummaries(c.Site) {
			for _, argIdx := range cs.PutsParams {
				if argIdx >= len(c.Site.Args) {
					continue
				}
				id, ok := ast.Unparen(c.Site.Args[argIdx]).(*ast.Ident)
				if !ok {
					continue
				}
				if idx, ok := params[a.pass.TypesInfo.Uses[id]]; ok && !puts[idx] {
					puts[idx] = true
					changed = true
				}
			}
		}
	}
	if changed {
		s.PutsParams = s.PutsParams[:0]
		for idx := range puts { //mlstar:nolint determinism -- small index set, sorted below
			s.PutsParams = append(s.PutsParams, idx)
		}
		sortInts(s.PutsParams)
	}

	if !s.ReturnsPooled {
		pr := a.problem(n)
		in := pr.Solve()
		pr.Replay(in, func(nd ast.Node, st taint.State) {
			if ret, ok := nd.(*ast.ReturnStmt); ok {
				for _, res := range ret.Results {
					if a.markOf(res, st)&pooled != 0 {
						s.ReturnsPooled = true
					}
				}
			}
		})
		if s.ReturnsPooled {
			changed = true
		}
	}
	return changed
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// report replays one function's dataflow with diagnostics enabled.
func (a *analyzer) report(n *callgraph.Node) {
	if n.Body() == nil {
		return
	}
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
			a.reportDoublePut(call, obj)
		}
		return true
	})
}

// reportDoublePut flags a second Put, with a fix deleting the whole
// statement when the Put is a statement of its own.
func (a *analyzer) reportDoublePut(call *ast.CallExpr, obj types.Object) {
	msg := "double Put of pooled buffer %s on some path; the pool already owns it"
	if stmt := a.enclosingExprStmt(call); stmt != nil {
		a.pass.ReportFix(call.Pos(), analysis.SuggestedFix{
			Message: "delete the redundant Put",
			Edits:   []analysis.TextEdit{{Pos: stmt.Pos(), End: stmt.End()}},
		}, msg, obj.Name())
		return
	}
	a.pass.Reportf(call.Pos(), msg, obj.Name())
}

// enclosingExprStmt finds the expression statement whose expression is
// exactly this call, if any.
func (a *analyzer) enclosingExprStmt(call *ast.CallExpr) *ast.ExprStmt {
	var found *ast.ExprStmt
	for _, f := range a.pass.Files {
		if f.Pos() <= call.Pos() && call.End() <= f.End() {
			ast.Inspect(f, func(n ast.Node) bool {
				if es, ok := n.(*ast.ExprStmt); ok && ast.Unparen(es.X) == call {
					found = es
					return false
				}
				return true
			})
		}
	}
	return found
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
		obj := a.pass.TypesInfo.ObjectOf(l)
		if obj != nil && obj.Parent() == a.pass.Pkg.Scope() {
			a.pass.Reportf(rhs.Pos(),
				"pooled buffer stored into package variable %s outlives its PutVec; copy it (vec.Copy) or keep it function-local", l.Name)
		}
	}
}
