// Package callgraph builds a conservative call graph of one package for the
// interprocedural analyzers in the mlstar lint suite. Nodes are the
// package's declared functions and methods plus every function literal;
// edges are the statically resolvable calls between them:
//
//   - direct calls to package-level functions and methods,
//   - immediately invoked literals (func(){...}()),
//   - calls through a local identifier bound to a function literal
//     (fold := func(){...}; fold()) or to a method value (f := x.M; f()),
//     resolved through every binding the identifier ever receives,
//
// Calls the graph cannot resolve inside the package are reported either as
// Remote (a *types.Func from another package — the hook for cross-package
// facts) or Dynamic (interface methods, function-typed parameters), which
// analyzers must treat according to their own conservatism policy.
//
// SCCs and BottomUp give analyzers a callee-first traversal with fixpoint
// iteration inside recursive components, the order function summaries (and
// the exported facts built from them) must be computed in.
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
	Site *ast.CallExpr
	// Callee is the in-package target (declared function or literal) when
	// the call resolves statically; nil otherwise.
	Callee *Node
	// Remote is the callee object when it resolves to a function defined in
	// another package (or an in-package declaration without a body).
	Remote *types.Func
	// Dynamic marks calls through interface methods or function-typed
	// values with no visible binding: the target is unknown.
	Dynamic bool
}

// Graph is the package's call graph.
type Graph struct {
	// Nodes in deterministic order: declared functions in file/position
	// order, then literals in position order.
	Nodes  []*Node
	ByFunc map[*types.Func]*Node
	ByLit  map[*ast.FuncLit]*Node
}

// Build constructs the call graph of the package given its syntax and type
// information.
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

	bindings := collectBindings(info, files)

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
				from.Calls = append(from.Calls, resolve(g, info, bindings, call)...)
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

// binding is everything a local identifier was ever assigned that the graph
// can see: function literals and method/function values.
type binding struct {
	lits []*ast.FuncLit
	fns  []*types.Func
}

// collectBindings maps each object to the function values bound to it
// anywhere in the package: f := func(){...}, f = x.M, var f = g. A variable
// that also receives opaque values keeps its visible bindings — the graph
// over-approximates the callee set, never prunes it.
func collectBindings(info *types.Info, files []*ast.File) map[types.Object]*binding {
	out := map[types.Object]*binding{}
	record := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		switch rhs := ast.Unparen(rhs).(type) {
		case *ast.FuncLit:
			b := out[obj]
			if b == nil {
				b = &binding{}
				out[obj] = b
			}
			b.lits = append(b.lits, rhs)
		case *ast.Ident: // f := g (a declared function used as a value)
			if fn, ok := info.Uses[rhs].(*types.Func); ok {
				b := out[obj]
				if b == nil {
					b = &binding{}
					out[obj] = b
				}
				b.fns = append(b.fns, fn)
			}
		case *ast.SelectorExpr: // f := x.M (method value) or f := pkg.G
			if fn, ok := info.Uses[rhs.Sel].(*types.Func); ok {
				b := out[obj]
				if b == nil {
					b = &binding{}
					out[obj] = b
				}
				b.fns = append(b.fns, fn)
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
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
			}
			return true
		})
	}
	return out
}

// resolve classifies one call site into zero or more Call records. A call
// through a bound identifier yields one record per visible binding.
func resolve(g *Graph, info *types.Info, bindings map[types.Object]*binding, call *ast.CallExpr) []Call {
	// Conversions (T(x)) and built-ins are not calls for our purposes.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return []Call{{Site: call, Callee: g.ByLit[fun]}}
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return toFunc(g, call, obj)
		case *types.Var:
			if b := bindings[obj]; b != nil {
				var out []Call
				for _, lit := range b.lits {
					out = append(out, Call{Site: call, Callee: g.ByLit[lit]})
				}
				for _, fn := range b.fns {
					out = append(out, toFunc(g, call, fn)...)
				}
				return out
			}
			return []Call{{Site: call, Dynamic: true}}
		case *types.Builtin, nil:
			return nil
		}
		return []Call{{Site: call, Dynamic: true}}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			// Interface method calls have no body anywhere: mark dynamic.
			if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
				if types.IsInterface(sel.Recv()) {
					return []Call{{Site: call, Remote: origin(fn), Dynamic: true}}
				}
			}
			return toFunc(g, call, fn)
		}
		return []Call{{Site: call, Dynamic: true}}
	}
	return []Call{{Site: call, Dynamic: true}}
}

// toFunc resolves a *types.Func to an in-package node or a Remote record.
func toFunc(g *Graph, call *ast.CallExpr, fn *types.Func) []Call {
	fn = origin(fn)
	if node, ok := g.ByFunc[fn]; ok {
		return []Call{{Site: call, Callee: node}}
	}
	return []Call{{Site: call, Remote: fn}}
}

// origin maps a generic instantiation back to its declared function so
// node lookup and fact keys are stable.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// FuncID is a stable, package-qualified identifier for a declared function
// or method, the key of its facts in the store. A name rather than the
// object keeps the store independent of how the packages were loaded.
func FuncID(fn *types.Func) string {
	return origin(fn).FullName()
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
