package callgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// load parses and type-checks one in-memory file (no imports allowed) and
// builds its call graph.
func load(t *testing.T, src string) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return Build(info, []*ast.File{f})
}

// node finds the named graph node, failing when absent.
func node(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	names := make([]string, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		names = append(names, n.Name)
	}
	t.Fatalf("node %q not in graph %v", name, names)
	return nil
}

// callees returns the resolved in-package callees of a node, by name.
func callees(n *Node) []string {
	var out []string
	for _, c := range n.Calls {
		if c.Callee != nil {
			out = append(out, c.Callee.Name)
		}
	}
	return out
}

func TestDirectAndMethodCalls(t *testing.T) {
	g := load(t, `package p

type T struct{}

func (t *T) M() {}
func g()        {}

func f() {
	g()
	var t T
	t.M()
}
`)
	f := node(t, g, "f")
	got := callees(f)
	want := map[string]bool{"g": true, "(*T).M": true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Errorf("f callees = %v, want g and (*T).M", got)
	}
}

func TestMethodValueAndNamedClosure(t *testing.T) {
	g := load(t, `package p

type T struct{}

func (t T) M() int { return 1 }

func f() int {
	var t T
	m := t.M
	fold := func() int { return 2 }
	return m() + fold()
}
`)
	f := node(t, g, "f")
	var litCallee, methodCallee bool
	for _, c := range f.Calls {
		if c.Callee == nil {
			continue
		}
		if c.Callee.Lit != nil {
			litCallee = true
		}
		if c.Callee.Name == "(T).M" {
			methodCallee = true
		}
	}
	if !methodCallee {
		t.Errorf("call through a method value must resolve to (T).M; calls = %+v", f.Calls)
	}
	if !litCallee {
		t.Errorf("call through a named closure must resolve to its literal; calls = %+v", f.Calls)
	}
}

func TestNestedLiteralOwnership(t *testing.T) {
	g := load(t, `package p

func g() {}
func h() {}

func f() {
	func() {
		g()
	}()
	stored := func() { h() }
	_ = stored
}
`)
	f := node(t, g, "f")
	// f owns only the immediate invocation of the first literal — the calls
	// inside both literals belong to the literal nodes.
	for _, name := range callees(f) {
		if name == "g" || name == "h" {
			t.Errorf("call %s inside a literal must not be attributed to f", name)
		}
	}
	var sawG, sawH bool
	for _, n := range g.Nodes {
		if n.Lit == nil {
			continue
		}
		for _, name := range callees(n) {
			sawG = sawG || name == "g"
			sawH = sawH || name == "h"
		}
	}
	if !sawG || !sawH {
		t.Errorf("literal nodes must own their calls: sawG=%v sawH=%v", sawG, sawH)
	}
	// The immediately invoked literal is f's callee.
	invoked := false
	for _, c := range f.Calls {
		if c.Callee != nil && c.Callee.Lit != nil {
			invoked = true
		}
	}
	if !invoked {
		t.Errorf("immediately invoked literal must be a resolved callee of f")
	}
}

func TestDynamicAndRemote(t *testing.T) {
	g := load(t, `package p

func external() // implemented elsewhere: no body

func f(cb func()) {
	cb()
	external()
}
`)
	f := node(t, g, "f")
	var dynamic, remote bool
	for _, c := range f.Calls {
		if c.Dynamic {
			dynamic = true
		}
		if c.Func != nil {
			remote = true
			if c.Callee != nil || c.Func.FullName() != "p.external" {
				t.Errorf("call to external = %+v, want no Callee and Func p.external", c)
			}
		}
	}
	if !dynamic {
		t.Errorf("call through a function parameter must be Dynamic; calls = %+v", f.Calls)
	}
	if !remote {
		t.Errorf("call to a bodyless declaration must name its Func; calls = %+v", f.Calls)
	}
}

func TestInterfaceCallIsDynamicWithRemote(t *testing.T) {
	g := load(t, `package p

type I interface{ M() }

func f(i I) {
	i.M()
}
`)
	f := node(t, g, "f")
	if len(f.Calls) != 1 {
		t.Fatalf("f has %d calls, want 1", len(f.Calls))
	}
	c := f.Calls[0]
	if !c.Dynamic || c.Callee != nil || c.Func == nil || c.Func.Name() != "M" {
		t.Errorf("interface call must be Dynamic with the method as Func; got %+v", c)
	}
}

func TestGenericInstantiationResolvesToOrigin(t *testing.T) {
	g := load(t, `package p

func gen[T any](x T) {}

func f() {
	gen(1)
	gen("s")
}
`)
	f := node(t, g, "f")
	genNode := node(t, g, "gen")
	for _, c := range f.Calls {
		if c.Callee != genNode {
			t.Errorf("generic instantiation must resolve to the origin node; got %+v", c)
		}
	}
	if len(f.Calls) != 2 {
		t.Errorf("f has %d calls, want 2", len(f.Calls))
	}
}

func TestSCCsCalleeFirst(t *testing.T) {
	g := load(t, `package p

func a() { b() }
func b() { a() }
func c() { a() }
func leaf() {}
`)
	sccs := SCCs(g)
	pos := map[string]int{}
	for i, scc := range sccs {
		for _, n := range scc {
			pos[n.Name] = i
		}
	}
	if pos["a"] != pos["b"] {
		t.Errorf("a and b are mutually recursive and must share an SCC")
	}
	if pos["a"] >= pos["c"] {
		t.Errorf("callee SCC {a,b} must come before caller {c}: pos=%v", pos)
	}
}

func TestBottomUpFixpoint(t *testing.T) {
	g := load(t, `package p

func leaf() {}
func x() { leaf() }
func a() { b() }
func b() { a(); x() }
func top() { a() }
func r() { r() }
`)
	// Compute "transitively reaches leaf" — inside the {a,b} SCC the answer
	// propagates only by iterating to a fixpoint.
	reach := map[*Node]bool{}
	visits := map[string]int{}
	BottomUp(g, func(n *Node) bool {
		visits[n.Name]++
		v := n.Name == "leaf"
		for _, c := range n.Calls {
			if c.Callee != nil && reach[c.Callee] {
				v = true
			}
		}
		if v && !reach[n] {
			reach[n] = true
			return true
		}
		return false
	})
	for _, name := range []string{"leaf", "x", "a", "b", "top"} {
		if !reach[node(t, g, name)] {
			t.Errorf("%s must be marked as reaching leaf", name)
		}
	}
	if reach[node(t, g, "r")] {
		t.Errorf("r never reaches leaf")
	}
	if visits["a"] < 2 || visits["b"] < 2 {
		t.Errorf("recursive SCC members must be visited to a fixpoint: visits=%v", visits)
	}
	if visits["leaf"] != 1 || visits["top"] != 1 {
		t.Errorf("non-recursive singletons must be visited exactly once: visits=%v", visits)
	}
}
