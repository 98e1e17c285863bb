// Package callgraph builds a conservative call graph over every package of
// a lint pass, for the interprocedural analyzers in the mlstar lint suite.
// Nodes are the declared functions and methods plus every function
// literal; edges are the statically resolvable calls between them:
//
//   - direct calls to functions and methods, in any package of the pass,
//   - immediately invoked literals (func(){...}()),
//   - calls through a local identifier bound to a function literal
//     (fold := func(){...}; fold()) or to a method value (f := x.M; f()),
//     resolved through every binding the identifier ever receives,
//
// A call to a function whose body is not in the pass (the standard
// library, a bodyless declaration) has no Callee but names its Func; a call
// through an interface method or a function-typed value with no visible
// binding is Dynamic. Analyzers treat both according to their own
// conservatism policy.
//
// SCCs and BottomUp give analyzers a callee-first traversal with fixpoint
// iteration inside recursive components, the order function summaries must
// be computed in, and Summaries gives an analyzer its own summary per node.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Node is one function in the graph: a declared function/method (Fn and
// Decl set) or a function literal (Lit set).
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Name is a human-readable label: the function's name, "(*T).M" for
	// methods, or "funcN@line" for literals.
	Name  string
	Calls []Call

	index, lowlink int
	onStack        bool
}

// Body returns the node's statement body (nil for declarations without one).
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	if n.Lit != nil {
		return n.Lit.Body
	}
	return nil
}

// Pos returns the node's source position.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return token.NoPos
}

// Call is one call site inside a node.
type Call struct {
	// Callee is the target in the graph (declared function or literal)
	// when the call resolves statically to a body of the pass; nil
	// otherwise.
	Callee *Node
	// Func is the declared function or method the call names, when it
	// names one (the origin of a generic instantiation), whether or not
	// its body is in the graph.
	Func *types.Func
	// Dynamic marks calls through interface methods or function-typed
	// values with no visible binding: the target is unknown.
	Dynamic bool
}

// Graph is the call graph of a pass.
type Graph struct {
	// Nodes in deterministic order: by source position, which follows the
	// order the pass's files were added to the file set.
	Nodes  []*Node
	ByFunc map[*types.Func]*Node
	ByLit  map[*ast.FuncLit]*Node
	// Bindings maps each variable or struct field to the function values
	// assigned to it anywhere in the pass.
	Bindings map[types.Object]*Binding
}

// Build constructs the call graph of the given files, which may span many
// packages of one type universe.
func Build(info *types.Info, files []*ast.File) *Graph {
	g := &Graph{ByFunc: map[*types.Func]*Node{}, ByLit: map[*ast.FuncLit]*Node{}}

	// Pass 1: create nodes for declarations and literals.
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				fn, _ := info.Defs[n.Name].(*types.Func)
				if fn == nil || n.Body == nil {
					return true
				}
				node := &Node{Fn: fn, Decl: n, Name: declName(n)}
				g.Nodes = append(g.Nodes, node)
				g.ByFunc[fn] = node
			case *ast.FuncLit:
				node := &Node{Lit: n, Name: fmt.Sprintf("func@%d", n.Pos())}
				g.Nodes = append(g.Nodes, node)
				g.ByLit[n] = node
			}
			return true
		})
	}
	sort.SliceStable(g.Nodes, func(i, j int) bool { return g.Nodes[i].Pos() < g.Nodes[j].Pos() })

	g.Bindings = collectBindings(info, files)

	// Pass 2: resolve call sites. Each call belongs to the innermost
	// enclosing function node, so nested literal subtrees are skipped — they
	// are their own nodes and collect their own calls.
	for _, node := range g.Nodes {
		body := node.Body()
		if body == nil {
			continue
		}
		from := node
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				from.Calls = append(from.Calls, resolve(g, info, call)...)
			}
			return true
		})
	}
	return g
}

// declName renders "F" or "(T).M"/"(*T).M".
func declName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	star := ""
	if se, ok := t.(*ast.StarExpr); ok {
		star, t = "*", se.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return "(" + star + id.Name + ")." + d.Name.Name
	}
	return d.Name.Name
}

// Binding is everything a variable or field was ever assigned that the
// graph can see: function literals and function or method values.
type Binding struct {
	Lits  []*ast.FuncLit
	Funcs []*types.Func
}

// collectBindings maps each object to the function values bound to it
// anywhere in the pass: f := func(){...}, f = x.M, var f = g, ev.thunk =
// func(){...} and &probe{run: func(){...}}. A variable that also receives
// opaque values keeps its visible bindings — the graph over-approximates
// the callee set, never prunes it.
func collectBindings(info *types.Info, files []*ast.File) map[types.Object]*Binding {
	out := map[types.Object]*Binding{}
	record := func(id *ast.Ident, rhs ast.Expr) {
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		b := out[obj]
		if b == nil {
			b = &Binding{}
		}
		switch rhs := ast.Unparen(rhs).(type) {
		case *ast.FuncLit:
			b.Lits = append(b.Lits, rhs)
		case *ast.Ident: // f := g (a declared function used as a value)
			fn, ok := info.Uses[rhs].(*types.Func)
			if !ok {
				return
			}
			b.Funcs = append(b.Funcs, fn)
		case *ast.SelectorExpr: // f := x.M (method value) or f := pkg.G
			fn, ok := info.Uses[rhs.Sel].(*types.Func)
			if !ok {
				return
			}
			b.Funcs = append(b.Funcs, fn)
		default:
			return
		}
		out[obj] = b
	}
	target := func(lhs ast.Expr) *ast.Ident {
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			return lhs
		case *ast.SelectorExpr:
			return lhs.Sel
		}
		return nil
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i := range n.Lhs {
					if id := target(n.Lhs[i]); id != nil && i < len(n.Rhs) {
						record(id, n.Rhs[i])
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
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.ObjectOf(key).(*types.Var); ok && v.IsField() {
							record(key, kv.Value)
						}
					}
				}
			}
			return true
		})
	}
	return out
}

// resolve classifies one call site into zero or more Call records. A call
// through a bound identifier yields one record per visible binding.
func resolve(g *Graph, info *types.Info, call *ast.CallExpr) []Call {
	// Conversions (T(x)) and built-ins are not calls for our purposes.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return []Call{{Callee: g.ByLit[fun]}}
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return toFunc(g, obj)
		case *types.Var:
			if b := g.Bindings[obj]; b != nil {
				var out []Call
				for _, lit := range b.Lits {
					out = append(out, Call{Callee: g.ByLit[lit]})
				}
				for _, fn := range b.Funcs {
					out = append(out, toFunc(g, fn)...)
				}
				return out
			}
			return []Call{{Dynamic: true}}
		case *types.Builtin, nil:
			return nil
		}
		return []Call{{Dynamic: true}}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			// Interface method calls have no body anywhere: mark dynamic.
			if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
				if types.IsInterface(sel.Recv()) {
					return []Call{{Func: origin(fn), Dynamic: true}}
				}
			}
			return toFunc(g, fn)
		}
		return []Call{{Dynamic: true}}
	}
	return []Call{{Dynamic: true}}
}

// toFunc resolves a *types.Func to its node, when its body is in the graph.
func toFunc(g *Graph, fn *types.Func) []Call {
	fn = origin(fn)
	return []Call{{Callee: g.ByFunc[fn], Func: fn}}
}

// origin maps a generic instantiation back to its declared function so
// node lookup is stable.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// SCCs returns the strongly connected components of the graph in
// callee-first (reverse topological) order: every edge from a component
// points into an earlier component or itself.
func SCCs(g *Graph) [][]*Node {
	t := &tarjan{index: map[*Node]bool{}}
	for _, n := range g.Nodes {
		if !t.index[n] {
			t.visit(n)
		}
	}
	return t.sccs
}

type tarjan struct {
	counter int
	stack   []*Node
	index   map[*Node]bool
	sccs    [][]*Node
}

func (t *tarjan) visit(n *Node) {
	t.index[n] = true
	t.counter++
	n.index, n.lowlink = t.counter, t.counter
	t.stack = append(t.stack, n)
	n.onStack = true
	for _, c := range n.Calls {
		m := c.Callee
		if m == nil {
			continue
		}
		if !t.index[m] {
			t.visit(m)
			if m.lowlink < n.lowlink {
				n.lowlink = m.lowlink
			}
		} else if m.onStack && m.index < n.lowlink {
			n.lowlink = m.index
		}
	}
	if n.lowlink == n.index {
		var scc []*Node
		for {
			m := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			m.onStack = false
			scc = append(scc, m)
			if m == n {
				break
			}
		}
		t.sccs = append(t.sccs, scc)
	}
}

// BottomUp traverses the graph callee-first, calling visit on each node and
// iterating recursive components until visit reports no change for a full
// round — the fixpoint schedule for computing function summaries.
func BottomUp(g *Graph, visit func(n *Node) bool) {
	for _, scc := range SCCs(g) {
		if len(scc) == 1 && !hasSelfLoop(scc[0]) {
			visit(scc[0])
			continue
		}
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if visit(n) {
					changed = true
				}
			}
		}
	}
}

func hasSelfLoop(n *Node) bool {
	for _, c := range n.Calls {
		if c.Callee == n {
			return true
		}
	}
	return false
}

// Summaries is one analyzer's view of a graph: a summary of type S per
// node, solved callee-first by Solve.
type Summaries[S any] struct {
	*Graph
	Sums map[*Node]*S
}

// NewSummaries gives every node of g a zero summary.
func NewSummaries[S any](g *Graph) *Summaries[S] {
	s := &Summaries[S]{Graph: g, Sums: make(map[*Node]*S, len(g.Nodes))}
	for _, n := range g.Nodes {
		s.Sums[n] = new(S)
	}
	return s
}

// Solve computes the summaries callee-first: update recomputes one node's
// summary from its callees' and reports whether it changed.
func (s *Summaries[S]) Solve(update func(n *Node, sum *S) bool) {
	BottomUp(s.Graph, func(n *Node) bool { return update(n, s.Sums[n]) })
}
