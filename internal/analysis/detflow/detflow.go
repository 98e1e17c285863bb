// Package detflow tracks nondeterminism as a taint through the dataflow of
// simulated code, complementing the syntactic determinism analyzer. Where
// determinism flags the *sources* (a map range, a time.Now call, a raw
// goroutine), detflow follows the tainted *values* — through assignments,
// arithmetic, helper calls, and across package boundaries via function
// summaries — and reports where they matter:
//
//   - a float accumulation (s += v) folding values in map-iteration or
//     wall-clock order: float addition is not associative, so the result
//     differs run to run even when the value *set* is identical. When the
//     fold sits directly in a map range with a sortable key, the diagnostic
//     carries a fix rewriting it to collect-sort-iterate;
//   - a tainted value flowing into a simulation charge (simnet sends and
//     computes, des waits) or into seed derivation (internal/detrand): the
//     virtual-time outcome would depend on map order or the wall clock;
//   - a tainted value stored into longer-lived state (a struct field or
//     package variable), from where it reaches simulated results.
//
// The taint crosses function boundaries in both directions. Each function
// exports a summary fact: the taint its return value carries (a helper that
// collects map values in iteration order returns order-tainted data, even
// when its own map range is suppressed with a scoped //mlstar:nolint
// determinism), which parameters flow to the return, and which parameters
// reach a sink inside the function (a helper that charges its argument
// makes every call site with a tainted argument a finding). This is what
// the syntactic analyzer fundamentally cannot see: the source and the sink
// may live in different functions, different files, or different packages.
package detflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mllibstar/internal/analysis"
	"mllibstar/internal/analysis/callgraph"
	"mllibstar/internal/analysis/cfg"
	"mllibstar/internal/analysis/taint"
)

const name = "detflow"

const (
	detrandPath = "mllibstar/internal/detrand"
	simnetPath  = "mllibstar/internal/simnet"
	desPath     = "mllibstar/internal/des"
)

// Analyzer is the determinism-taint check.
var Analyzer = &analysis.Analyzer{
	Name:     name,
	Doc:      "track map-order and wall-clock taint through assignments and calls into float accumulations, simulation charges, and shared state",
	FactsAll: true,
	DefaultScope: []string{
		"mllibstar/internal/allreduce",
		"mllibstar/internal/angel",
		"mllibstar/internal/bench",
		"mllibstar/internal/causal",
		"mllibstar/internal/clusters",
		"mllibstar/internal/core",
		"mllibstar/internal/data",
		"mllibstar/internal/des",
		"mllibstar/internal/dfs",
		"mllibstar/internal/engine",
		"mllibstar/internal/feats",
		"mllibstar/internal/glm",
		"mllibstar/internal/lbfgs",
		"mllibstar/internal/mavg",
		"mllibstar/internal/metrics",
		"mllibstar/internal/mllib",
		"mllibstar/internal/obs",
		"mllibstar/internal/opt",
		"mllibstar/internal/petuum",
		"mllibstar/internal/ps",
		"mllibstar/internal/simnet",
		"mllibstar/internal/train",
	},
	Run: run,
}

const (
	orderT taint.Marks = 1 << iota // derived from map-iteration order
	clockT                         // derived from the wall clock
	paramT                         // synthetic: traces one parameter in summary runs
)

// maxParams bounds the per-parameter summary runs per function.
const maxParams = 8

// wallClockFuncs mirror the determinism analyzer's wall-clock surface.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// summary is one function's exported taint contract.
type summary struct {
	// Ret is the taint the return values carry regardless of arguments.
	Ret uint8 `json:"ret,omitempty"`
	// ParamToRet marks parameters whose taint flows into a return value.
	ParamToRet []bool `json:"paramToRet,omitempty"`
	// ParamSink marks parameters that reach a sink inside the function.
	ParamSink []bool `json:"paramSink,omitempty"`
}

func run(pass *analysis.Pass) error {
	g := callgraph.Build(pass.TypesInfo, pass.Files)
	a := &analyzer{
		pass:   pass,
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
		a.reportNode(n)
	}
	return nil
}

type analyzer struct {
	pass   *analysis.Pass
	sums   map[*callgraph.Node]*summary
	remote map[*types.Func]*summary
	bySite map[*ast.CallExpr][]callgraph.Call
	cfgs   map[*callgraph.Node]*cfg.Graph
}

func (a *analyzer) calleeSummaries(call *ast.CallExpr) (sums []*summary, known bool) {
	known = true
	for _, c := range a.bySite[call] {
		switch {
		case c.Callee != nil:
			sums = append(sums, a.sums[c.Callee])
		case c.Remote != nil:
			s, ok := a.remote[c.Remote]
			if !ok {
				s = &summary{}
				if !a.pass.FactStore().Import(name, callgraph.FuncID(c.Remote), s) {
					s.Ret = 0xff // sentinel: no fact, contract unknown
				}
				a.remote[c.Remote] = s
			}
			if s.Ret == 0xff {
				known = false
			} else {
				sums = append(sums, s)
			}
		default:
			known = false // dynamic call: no contract to consult
		}
	}
	return sums, known
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
	fn := analysis.FuncOf(a.pass.TypesInfo, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] {
		return clockT
	}
	// A method's result conservatively carries its receiver's taint
	// (summaries model parameter flow only): time.Since(t0).Seconds() stays
	// clock-tainted through the summaryless Duration method.
	var m taint.Marks
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		m |= a.marks(sel.X, st)
	}
	sums, known := a.calleeSummaries(call)
	if !known || len(sums) == 0 {
		// No contract for some possible callee: assume argument taint flows
		// through (math.Abs of a tainted value is tainted).
		for _, arg := range call.Args {
			m |= a.marks(arg, st)
		}
		return m
	}
	for _, s := range sums {
		m |= taint.Marks(s.Ret) &^ paramT
		for i, arg := range call.Args {
			if i < len(s.ParamToRet) && s.ParamToRet[i] {
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
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					a.bind(n.Lhs[i], a.marks(n.Rhs[i], st), st)
				}
			} else if len(n.Rhs) == 1 {
				m := a.marks(n.Rhs[0], st)
				for _, lhs := range n.Lhs {
					a.bind(lhs, m, st)
				}
			}
			return
		}
		// Compound assignment accumulates: the target keeps its taint and
		// gains the operand's.
		if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
			if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok {
				if obj := a.pass.TypesInfo.ObjectOf(id); obj != nil {
					st.Add(obj, a.marks(n.Rhs[0], st))
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, nm := range vs.Names {
						if i < len(vs.Values) {
							a.bind(nm, a.marks(vs.Values[i], st), st)
						}
					}
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
		a.bind(n.Key, base, st)
		a.bind(n.Value, base, st)
	case *ast.IncDecStmt:
		// x++ keeps x's taint.
	case *ast.ExprStmt:
		a.sanitize(n.X, st)
	}
}

// sanitize clears order taint from the argument of an in-place sort: the
// canonical collect-sort-iterate repair restores a deterministic order, so
// downstream folds of the sorted slice are clean (this is exactly the code
// the sort-before-fold suggested fix generates).
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

func (a *analyzer) bind(lhs ast.Expr, m taint.Marks, st taint.State) {
	if lhs == nil {
		return
	}
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
		if obj := a.pass.TypesInfo.ObjectOf(id); obj != nil {
			st.Set(obj, m)
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
				"float accumulation folds %s values: addition is not associative, so the result changes run to run; fold in a canonical order", describe(m))
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
				if obj := a.pass.TypesInfo.ObjectOf(l); obj != nil && obj.Parent() == a.pass.Pkg.Scope() {
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
		if isChargePrimitive(fn) {
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
	sums, _ := a.calleeSummaries(call)
	for _, s := range sums {
		for i, arg := range call.Args {
			if i < len(s.ParamSink) && s.ParamSink[i] {
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

// isChargePrimitive matches the simnet/des charge surface (shared with the
// costcharge analyzer's classification).
func isChargePrimitive(fn *types.Func) bool {
	switch fn.Name() {
	case "ComputeKind", "ComputeAsyncKind", "ChargeAsync", "SendPhase", "RecvN", "WaitUntil":
		return true
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	switch fn.Name() {
	case "Send", "Compute", "Recv":
		return pkg == simnetPath
	case "Wait":
		return pkg == desPath
	}
	return false
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

// summarize recomputes one node's exported contract for the BottomUp
// fixpoint: the return taint, then one traced run per parameter.
func (a *analyzer) summarize(n *callgraph.Node) bool {
	body := n.Body()
	if body == nil {
		return false
	}
	s := a.sums[n]
	changed := false

	ret, _ := a.solveOnce(n, nil)
	if uint8(ret)&^s.Ret != 0 {
		s.Ret |= uint8(ret)
		changed = true
	}

	params := a.paramObjs(n)
	if len(params) > maxParams {
		params = params[:maxParams]
	}
	if len(s.ParamToRet) < len(params) {
		s.ParamToRet = append(s.ParamToRet, make([]bool, len(params)-len(s.ParamToRet))...)
		s.ParamSink = append(s.ParamSink, make([]bool, len(params)-len(s.ParamSink))...)
	}
	for i, p := range params {
		if s.ParamToRet[i] && s.ParamSink[i] {
			continue
		}
		entry := taint.State{}
		entry.Set(p, paramT)
		ret, sank := a.solveOnce(n, entry)
		if ret&paramT != 0 && !s.ParamToRet[i] {
			s.ParamToRet[i] = true
			changed = true
		}
		if sank && !s.ParamSink[i] {
			s.ParamSink[i] = true
			changed = true
		}
	}
	return changed
}

// solveOnce runs the dataflow from one entry state and returns the union of
// return-value taints plus whether the traced parameter reached a sink.
func (a *analyzer) solveOnce(n *callgraph.Node, entry taint.State) (ret taint.Marks, sank bool) {
	pr := &taint.Problem{
		Graph:    a.cfgs[n],
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

func (a *analyzer) paramObjs(n *callgraph.Node) []types.Object {
	var ftype *ast.FuncType
	switch {
	case n.Decl != nil:
		ftype = n.Decl.Type
	case n.Lit != nil:
		ftype = n.Lit.Type
	}
	if ftype == nil || ftype.Params == nil {
		return nil
	}
	var out []types.Object
	for _, f := range ftype.Params.List {
		for _, nm := range f.Names {
			out = append(out, a.pass.TypesInfo.Defs[nm])
		}
	}
	return out
}

// reportNode replays one function with diagnostics enabled (no parameter
// taint: call sites report tainted arguments via the callee's summary).
func (a *analyzer) reportNode(n *callgraph.Node) {
	if n.Body() == nil {
		return
	}
	pr := &taint.Problem{
		Graph:    a.cfgs[n],
		Transfer: func(nd ast.Node, st taint.State) { a.transfer(nd, st) },
	}
	in := pr.Solve()
	mapRanges := a.mapRanges(n)
	seen := map[token.Pos]bool{}
	pr.Replay(in, func(nd ast.Node, st taint.State) {
		a.visitSinks(nd, st, func(pos token.Pos, m taint.Marks, format string, args ...any) {
			if seen[pos] {
				return
			}
			seen[pos] = true
			msg := fmt.Sprintf(format, args...)
			if as, ok := nd.(*ast.AssignStmt); ok && m&orderT != 0 && strings.Contains(msg, "float accumulation") {
				if fix, ok := a.sortBeforeFold(as, mapRanges); ok {
					a.pass.ReportFix(pos, fix, "%s", msg)
					return
				}
			}
			a.pass.Reportf(pos, "%s", msg)
		})
	})
}

// mapRanges collects the node's range-over-map statements for fix synthesis.
func (a *analyzer) mapRanges(n *callgraph.Node) []*ast.RangeStmt {
	var out []*ast.RangeStmt
	ast.Inspect(n.Body(), func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		if r, ok := c.(*ast.RangeStmt); ok {
			if tv, ok := a.pass.TypesInfo.Types[r.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					out = append(out, r)
				}
			}
		}
		return true
	})
	return out
}

// sortBeforeFold synthesizes the canonical collect-sort-iterate rewrite for
// a fold sitting directly inside a map range with a sortable key and a pure
// (identifier or selector) map expression.
func (a *analyzer) sortBeforeFold(at *ast.AssignStmt, mapRanges []*ast.RangeStmt) (analysis.SuggestedFix, bool) {
	// Innermost enclosing map range.
	var rng *ast.RangeStmt
	for _, r := range mapRanges {
		if r.Body.Pos() <= at.Pos() && at.End() <= r.Body.End() {
			if rng == nil || r.Pos() > rng.Pos() {
				rng = r
			}
		}
	}
	if rng == nil {
		return analysis.SuggestedFix{}, false
	}
	switch ast.Unparen(rng.X).(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return analysis.SuggestedFix{}, false
	}
	mt, ok := a.pass.TypesInfo.Types[rng.X].Type.Underlying().(*types.Map)
	if !ok {
		return analysis.SuggestedFix{}, false
	}
	keyBasic, ok := mt.Key().Underlying().(*types.Basic)
	if !ok {
		return analysis.SuggestedFix{}, false
	}
	var sortFn string
	switch keyBasic.Kind() {
	case types.String:
		sortFn = "sort.Strings"
	case types.Int:
		sortFn = "sort.Ints"
	case types.Float64:
		sortFn = "sort.Float64s"
	default:
		return analysis.SuggestedFix{}, false
	}

	key := "k"
	if id, ok := rng.Key.(*ast.Ident); ok && id.Name != "_" {
		key = id.Name
	}
	mapText := types.ExprString(rng.X)
	header := fmt.Sprintf(
		"sortedKeys := make([]%s, 0, len(%s))\nfor %s := range %s { //mlstar:nolint detflow,determinism -- collect loop, sorted before the fold below\nsortedKeys = append(sortedKeys, %s)\n}\n%s(sortedKeys)\nfor _, %s := range sortedKeys {",
		keyBasic.String(), mapText, key, mapText, key, sortFn, key)

	edits := []analysis.TextEdit{{Pos: rng.Pos(), End: rng.Body.Lbrace + 1, NewText: header}}
	if v, ok := rng.Value.(*ast.Ident); ok && v.Name != "_" {
		edits = append(edits, analysis.TextEdit{
			Pos: rng.Body.Lbrace + 1, End: rng.Body.Lbrace + 1,
			NewText: fmt.Sprintf("\n%s := %s[%s]", v.Name, mapText, key),
		})
	}
	if imp, ok := a.sortImportEdit(rng.Pos()); ok {
		edits = append(edits, imp)
	}
	return analysis.SuggestedFix{
		Message: "iterate the map in sorted key order before folding",
		Edits:   edits,
	}, true
}

// sortImportEdit inserts the "sort" import into the file containing pos,
// when missing.
func (a *analyzer) sortImportEdit(pos token.Pos) (analysis.TextEdit, bool) {
	for _, f := range a.pass.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		var lastSpec *ast.ImportSpec
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "sort" {
				return analysis.TextEdit{}, false
			}
			lastSpec = imp
		}
		if lastSpec != nil {
			return analysis.TextEdit{Pos: lastSpec.End(), End: lastSpec.End(), NewText: "\n\"sort\""}, true
		}
		return analysis.TextEdit{Pos: f.Name.End(), End: f.Name.End(), NewText: "\n\nimport \"sort\""}, true
	}
	return analysis.TextEdit{}, false
}
