package determinism

// The taint half of the analyzer follows the values the sources produce —
// through assignments, arithmetic and helper calls, across packages through
// function summaries — and reports where they matter:
//
//   - a float accumulation (s += v) folding values in map-iteration or
//     wall-clock order: float addition is not associative, so the result
//     differs run to run even when the value *set* is identical;
//   - a tainted value flowing into a simulation charge (simnet sends and
//     computes, des waits) or into seed derivation (internal/detrand): the
//     virtual-time outcome would depend on map order or the wall clock;
//   - a tainted value stored into longer-lived state (a struct field or
//     package variable), from where it reaches simulated results.
//
// The taint crosses function boundaries in both directions. Each function's
// summary holds the taint its return value carries (a helper that collects
// map values in iteration order returns order-tainted data, even when its
// own map range is suppressed), which parameters flow to the return, and
// which parameters reach a sink inside the function (a helper that charges
// its argument makes every call site with a tainted argument a finding).
// The source and the sink may live in different functions, files or
// packages.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mllibstar/internal/analysis"
	"mllibstar/internal/analysis/callgraph"
	"mllibstar/internal/analysis/taint"
)

const detrandPath = "mllibstar/internal/detrand"

const (
	orderT taint.Marks = 1 << iota // derived from map-iteration order
	clockT                         // derived from the wall clock
	paramT                         // synthetic: traces one parameter in summary runs
)

// maxParams bounds the per-parameter summary runs per function.
const maxParams = 8

// summary is one function's taint contract.
type summary struct {
	// ret is the taint the return values carry regardless of arguments.
	ret taint.Marks
	// paramToRet marks parameters whose taint flows into a return value.
	paramToRet []bool
	// paramSink marks parameters that reach a sink inside the function.
	paramSink []bool
}

type analyzer struct {
	pass *analysis.Pass
	prog *callgraph.Summaries[summary]
}

// marks computes the taint of one expression under the current state.
func (a *analyzer) marks(e ast.Expr, st taint.State) taint.Marks {
	switch e := e.(type) {
	case nil:
		return 0
	case *ast.Ident:
		if obj := a.pass.TypesInfo.Uses[e]; obj != nil {
			return st.Get(obj)
		}
		return 0
	case *ast.ParenExpr:
		return a.marks(e.X, st)
	case *ast.BasicLit, *ast.FuncLit:
		return 0
	case *ast.BinaryExpr:
		return a.marks(e.X, st) | a.marks(e.Y, st)
	case *ast.UnaryExpr:
		return a.marks(e.X, st)
	case *ast.StarExpr:
		return a.marks(e.X, st)
	case *ast.SelectorExpr:
		return a.marks(e.X, st)
	case *ast.IndexExpr:
		return a.marks(e.X, st) | a.marks(e.Index, st)
	case *ast.SliceExpr:
		return a.marks(e.X, st)
	case *ast.TypeAssertExpr:
		return a.marks(e.X, st)
	case *ast.KeyValueExpr:
		return a.marks(e.Value, st)
	case *ast.CompositeLit:
		var m taint.Marks
		for _, elt := range e.Elts {
			m |= a.marks(elt, st)
		}
		return m
	case *ast.CallExpr:
		return a.callMarks(e, st)
	}
	// Unmodeled expression shapes: union the marks of every identifier in
	// the subtree (conservative toward tainted).
	var m taint.Marks
	ast.Inspect(e, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := c.(*ast.Ident); ok {
			if obj := a.pass.TypesInfo.Uses[id]; obj != nil {
				m |= st.Get(obj)
			}
		}
		return true
	})
	return m
}

// callMarks computes the taint a call's results carry: wall-clock sources
// taint directly; known callees contribute their Ret taint plus the taint
// of arguments that flow to the return; unknown callees pass argument taint
// straight through (math.Abs of a tainted value is tainted).
func (a *analyzer) callMarks(call *ast.CallExpr, st taint.State) taint.Marks {
	if tv, ok := a.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: taint of the operand.
		var m taint.Marks
		for _, arg := range call.Args {
			m |= a.marks(arg, st)
		}
		return m
	}
	if isWallClock(packageFunc(a.pass.TypesInfo, call)) {
		return clockT
	}
	// A method's result conservatively carries its receiver's taint
	// (summaries model parameter flow only): time.Since(t0).Seconds() stays
	// clock-tainted through the summaryless Duration method.
	var m taint.Marks
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		m |= a.marks(sel.X, st)
	}
	sums, known := a.prog.Callees(call)
	if !known || len(sums) == 0 {
		// No contract for some possible callee: assume argument taint flows
		// through (math.Abs of a tainted value is tainted).
		for _, arg := range call.Args {
			m |= a.marks(arg, st)
		}
		return m
	}
	for _, s := range sums {
		m |= s.ret &^ paramT
		for i, arg := range call.Args {
			if i < len(s.paramToRet) && s.paramToRet[i] {
				m |= a.marks(arg, st)
			}
		}
	}
	return m
}

func (a *analyzer) transfer(n ast.Node, st taint.State) {
	if _, ok := taint.IsDeferredExec(n); ok {
		return
	}
	taint.Assigns(n, func(lhs, rhs ast.Expr) { st.Bind(a.pass.TypesInfo, lhs, a.marks(rhs, st)) })
	switch n := n.(type) {
	case *ast.AssignStmt:
		// An op-assignment accumulates: the target keeps its taint and
		// gains the operand's.
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE && len(n.Lhs) == 1 && len(n.Rhs) == 1 {
			if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok {
				if obj := a.pass.TypesInfo.ObjectOf(id); obj != nil {
					st.Add(obj, a.marks(n.Rhs[0], st))
				}
			}
		}
	case *ast.RangeStmt:
		tv, ok := a.pass.TypesInfo.Types[n.X]
		if !ok {
			return
		}
		base := a.marks(n.X, st)
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			base |= orderT
		}
		st.Bind(a.pass.TypesInfo, n.Key, base)
		st.Bind(a.pass.TypesInfo, n.Value, base)
	case *ast.ExprStmt:
		a.sanitize(n.X, st)
	}
}

// sanitize clears order taint from the argument of an in-place sort: the
// canonical collect-sort-iterate repair restores a deterministic order, so
// downstream folds of the sorted slice are clean.
func (a *analyzer) sanitize(e ast.Expr, st taint.State) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	fn := analysis.FuncOf(a.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg := fn.Pkg().Path()
	if pkg != "sort" && pkg != "slices" {
		return
	}
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		if obj := a.pass.TypesInfo.Uses[id]; obj != nil {
			st.Set(obj, st.Get(obj)&^orderT)
		}
	}
}

// sink is a callback receiving every sink event with the taint that reached
// it; report mode turns events into diagnostics, summary mode records
// whether the traced parameter arrived.
type sink func(pos token.Pos, m taint.Marks, format string, args ...any)

// visitSinks inspects one replayed node for sink events.
func (a *analyzer) visitSinks(n ast.Node, st taint.State, emit sink) {
	if _, ok := taint.IsDeferredExec(n); ok {
		return
	}
	if as, ok := n.(*ast.AssignStmt); ok {
		a.assignSinks(as, st, emit)
	}
	if rng, ok := n.(*ast.RangeStmt); ok {
		// The head block holds the whole RangeStmt; its body statements are
		// visited as their own nodes with their own states, so only the range
		// operand is inspected here.
		n = rng.X
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := c.(*ast.CallExpr); ok {
			a.callSinks(call, st, emit)
		}
		return true
	})
}

func (a *analyzer) assignSinks(as *ast.AssignStmt, st taint.State, emit sink) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		tv, ok := a.pass.TypesInfo.Types[as.Lhs[0]]
		if !ok || !analysis.IsFloat(tv.Type) {
			return
		}
		if m := a.marks(as.Rhs[0], st); m != 0 {
			emit(as.Pos(), m,
				"float accumulation folds %s values: addition is not associative, so the result changes run to run; fold in a canonical order (collect, sort, then fold)", describe(m))
		}
	case token.ASSIGN:
		for i, lhs := range as.Lhs {
			rhs := as.Rhs[0]
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			}
			m := a.marks(rhs, st)
			if m == 0 {
				continue
			}
			switch l := ast.Unparen(lhs).(type) {
			case *ast.SelectorExpr:
				emit(rhs.Pos(), m,
					"%s value stored into field %s: shared simulated state must not depend on iteration order or the wall clock", describe(m), l.Sel.Name)
			case *ast.Ident:
				if obj := a.pass.TypesInfo.ObjectOf(l); obj != nil && analysis.IsPackageVar(obj) {
					emit(rhs.Pos(), m,
						"%s value stored into package variable %s: shared simulated state must not depend on iteration order or the wall clock", describe(m), l.Name)
				}
			}
		}
	}
}

func (a *analyzer) callSinks(call *ast.CallExpr, st taint.State, emit sink) {
	fn := analysis.FuncOf(a.pass.TypesInfo, call)
	if fn != nil {
		if analysis.IsCharge(fn) {
			for _, arg := range call.Args {
				if m := a.marks(arg, st); m != 0 {
					emit(arg.Pos(), m,
						"%s value flows into simulation charge %s: virtual time would differ run to run", describe(m), fn.Name())
				}
			}
			return
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == detrandPath {
			for _, arg := range call.Args {
				if m := a.marks(arg, st); m != 0 {
					emit(arg.Pos(), m,
						"%s value flows into seed derivation detrand.%s: every stream drawn from it becomes irreproducible", describe(m), fn.Name())
				}
			}
			return
		}
	}
	sums, _ := a.prog.Callees(call)
	for _, s := range sums {
		for i, arg := range call.Args {
			if i < len(s.paramSink) && s.paramSink[i] {
				if m := a.marks(arg, st); m != 0 {
					calleeName := "the callee"
					if fn != nil {
						calleeName = fn.Name()
					}
					emit(arg.Pos(), m,
						"%s value reaches a determinism-sensitive sink inside %s", describe(m), calleeName)
				}
			}
		}
	}
}

func describe(m taint.Marks) string {
	var parts []string
	if m&orderT != 0 {
		parts = append(parts, "map-iteration-order-dependent")
	}
	if m&clockT != 0 {
		parts = append(parts, "wall-clock-derived")
	}
	if len(parts) == 0 {
		parts = append(parts, "parameter-tainted")
	}
	return strings.Join(parts, ", ")
}

// summarize recomputes one node's contract for the fixpoint: the return
// taint, then one traced run per parameter.
func (a *analyzer) summarize(n *callgraph.Node, s *summary) bool {
	changed := false
	ret, _ := a.solveOnce(n, nil)
	if ret&^s.ret != 0 {
		s.ret |= ret
		changed = true
	}

	params := n.Params(a.pass.TypesInfo)
	if len(params) > maxParams {
		params = params[:maxParams]
	}
	if len(s.paramToRet) < len(params) {
		s.paramToRet = make([]bool, len(params))
		s.paramSink = make([]bool, len(params))
	}
	for i, p := range params {
		if s.paramToRet[i] && s.paramSink[i] {
			continue
		}
		entry := taint.State{}
		entry.Set(p, paramT)
		ret, sank := a.solveOnce(n, entry)
		if ret&paramT != 0 && !s.paramToRet[i] {
			s.paramToRet[i] = true
			changed = true
		}
		if sank && !s.paramSink[i] {
			s.paramSink[i] = true
			changed = true
		}
	}
	return changed
}

// solveOnce runs the dataflow from one entry state and returns the union of
// return-value taints plus whether the traced parameter reached a sink.
func (a *analyzer) solveOnce(n *callgraph.Node, entry taint.State) (ret taint.Marks, sank bool) {
	pr := &taint.Problem{
		Graph:    a.prog.CFG[n],
		Entry:    entry,
		Transfer: func(nd ast.Node, st taint.State) { a.transfer(nd, st) },
	}
	in := pr.Solve()
	collect := func(_ token.Pos, m taint.Marks, _ string, _ ...any) {
		if m&paramT != 0 {
			sank = true
		}
	}
	pr.Replay(in, func(nd ast.Node, st taint.State) {
		if r, ok := nd.(*ast.ReturnStmt); ok {
			for _, res := range r.Results {
				ret |= a.marks(res, st)
			}
		}
		a.visitSinks(nd, st, collect)
	})
	return ret, sank
}

// reportNode replays one function with diagnostics enabled (no parameter
// taint: call sites report tainted arguments via the callee's summary).
func (a *analyzer) reportNode(n *callgraph.Node) {
	pr := &taint.Problem{
		Graph:    a.prog.CFG[n],
		Transfer: func(nd ast.Node, st taint.State) { a.transfer(nd, st) },
	}
	in := pr.Solve()
	seen := map[token.Pos]bool{}
	pr.Replay(in, func(nd ast.Node, st taint.State) {
		a.visitSinks(nd, st, func(pos token.Pos, _ taint.Marks, format string, args ...any) {
			if seen[pos] {
				return
			}
			seen[pos] = true
			a.pass.Reportf(pos, format, args...)
		})
	})
}
