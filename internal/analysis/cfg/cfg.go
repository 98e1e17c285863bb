// Package cfg builds per-function control-flow graphs over the standard
// library's AST, for the flow-sensitive analyzers in the mlstar lint suite
// (buflife, determinism, costcharge). Like the rest of internal/analysis it is a
// deliberately small, stdlib-only sibling of golang.org/x/tools/go/cfg: a
// Graph is a list of basic blocks of ast.Nodes connected by successor
// edges, with one synthetic entry and one synthetic exit block.
//
// The construction is conservative in the direction dataflow analyses need:
// whenever the builder cannot model a statement's control flow precisely it
// adds more edges rather than fewer, so a forward "may" analysis run over
// the graph over-approximates the set of reachable states and never misses
// a path that real execution could take.
//
// Deferred calls do not appear as ordinary edges — they run at function
// exit in LIFO order, on every path. The builder records them in
// Graph.Defers (in syntactic order) so analyses can process them against
// the exit state; see taint.Problem.
package cfg

import (
	"fmt"
	"go/ast"
	"strings"
)

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Entry is the block control enters first. It may carry nodes.
	Entry *Block
	// Exit is the synthetic block every return path reaches. It carries no
	// nodes and has no successors.
	Exit *Block
	// Blocks lists every block, Entry first, in creation order — a stable,
	// deterministic order analyzers can iterate for reporting.
	Blocks []*Block
	// Defers are the function's defer statements in syntactic order. They
	// execute at exit (on every path, in reverse order); analyses that track
	// resource lifetimes must replay them against the exit state.
	Defers []*ast.DeferStmt
}

// Block is one basic block: a maximal sequence of nodes executed in order,
// ending in a transfer of control to one of Succs.
type Block struct {
	Index int
	Kind  string // for debugging and tests: "entry", "if.then", "for.head", ...
	Nodes []ast.Node
	Succs []*Block
}

// String renders the graph's shape for tests and debugging.
func (g *Graph) String() string {
	var b strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&b, "%d:%s ->", blk.Index, blk.Kind)
		for _, s := range blk.Succs {
			fmt.Fprintf(&b, " %d", s.Index)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// New builds the CFG of one function body. body may be the Body of an
// *ast.FuncDecl or *ast.FuncLit; nested function literals are treated as
// opaque values (their bodies are separate functions with their own
// graphs).
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.g.Exit = &Block{Kind: "exit"}
	b.cur = b.newBlock("entry")
	b.g.Entry = b.cur
	b.stmtList(body.List)
	b.jump(b.g.Exit)
	// Exit goes last so Blocks order follows creation order of real blocks.
	b.g.Exit.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, b.g.Exit)
	b.resolveGotos()
	return b.g
}

// builder carries the construction state.
type builder struct {
	g   *Graph
	cur *Block

	// loops and switches push break/continue targets; a label on the
	// statement names the frame so labeled break/continue resolve.
	frames []frame

	// labeled blocks for goto; forward gotos are patched at the end.
	labels       map[string]*Block
	pendingGotos []pendingGoto

	// label to attach to the next loop/switch statement.
	nextLabel string
}

type frame struct {
	label   string
	breakTo *Block
	contTo  *Block // nil for switch/select frames
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// jump adds an edge from the current block to dst.
func (b *builder) jump(dst *Block) {
	for _, s := range b.cur.Succs {
		if s == dst {
			return
		}
	}
	b.cur.Succs = append(b.cur.Succs, dst)
}

// startUnreachable begins a fresh block with no predecessors, for code
// following a return/branch. It stays in the graph (diagnostics may still
// want to walk it) but receives no flow.
func (b *builder) startUnreachable() {
	b.cur = b.newBlock("unreachable")
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// add appends a node to the current block.
func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmt(s ast.Stmt) {
	label := b.nextLabel
	b.nextLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		// The label is both a goto target and (for loops/switches) the name
		// of the break/continue frame of the labeled statement.
		target := b.newBlock("label." + s.Label.Name)
		b.jump(target)
		b.cur = target
		if b.labels == nil {
			b.labels = map[string]*Block{}
		}
		b.labels[s.Label.Name] = target
		b.nextLabel = s.Label.Name
		b.stmt(s.Stmt)
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)
		b.startUnreachable()
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, label, nil)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body, label, nil)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	case *ast.ExprStmt:
		b.add(s)
		if isTerminalCall(s.X) {
			b.jump(b.g.Exit)
			b.startUnreachable()
		}
	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, EmptyStmt, ...
		// straight-line statements with no internal control flow.
		b.add(s)
	}
}

func (b *builder) branch(s *ast.BranchStmt) {
	b.add(s)
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		if f := b.findFrame(name, false); f != nil {
			b.jump(f.breakTo)
		}
		b.startUnreachable()
	case "continue":
		if f := b.findFrame(name, true); f != nil {
			b.jump(f.contTo)
		}
		b.startUnreachable()
	case "goto":
		if dst, ok := b.labels[name]; ok {
			b.jump(dst)
		} else {
			b.pendingGotos = append(b.pendingGotos, pendingGoto{from: b.cur, label: name})
		}
		b.startUnreachable()
	case "fallthrough":
		// switchBody wires the fall-through edge; nothing to do here.
	}
}

// findFrame locates the innermost matching break/continue frame. A nil
// result (syntactically invalid code) degrades to dropping the edge, which
// the type checker would have rejected anyway.
func (b *builder) findFrame(label string, needContinue bool) *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needContinue && f.contTo == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	condBlk := b.cur
	done := b.newBlock("if.done")

	thenBlk := b.newBlock("if.then")
	condBlk.Succs = append(condBlk.Succs, thenBlk)
	b.cur = thenBlk
	b.stmtList(s.Body.List)
	b.jump(done)

	if s.Else != nil {
		elseBlk := b.newBlock("if.else")
		condBlk.Succs = append(condBlk.Succs, elseBlk)
		b.cur = elseBlk
		b.stmt(s.Else)
		b.jump(done)
	} else {
		condBlk.Succs = append(condBlk.Succs, done)
	}
	b.cur = done
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	b.jump(head)
	done := b.newBlock("for.done")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
		post.Succs = append(post.Succs, head)
	}

	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
		head.Succs = append(head.Succs, done)
	}
	body := b.newBlock("for.body")
	head.Succs = append(head.Succs, body)
	b.cur = body
	b.frames = append(b.frames, frame{label: label, breakTo: done, contTo: post})
	b.stmtList(s.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	b.jump(post)
	if s.Post != nil {
		post.Nodes = append(post.Nodes, s.Post)
	}
	b.cur = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	// The RangeStmt node itself sits in the loop head: analyzers see it once
	// per fixpoint pass and can bind the key/value variables there.
	head := b.newBlock("range.head")
	b.jump(head)
	done := b.newBlock("range.done")
	head.Nodes = append(head.Nodes, s)
	head.Succs = append(head.Succs, done)

	body := b.newBlock("range.body")
	head.Succs = append(head.Succs, body)
	b.cur = body
	b.frames = append(b.frames, frame{label: label, breakTo: done, contTo: head})
	b.stmtList(s.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	b.jump(head)
	b.cur = done
}

// switchBody wires the clauses of a switch or type switch: every clause is
// entered from the head (conservatively — clause guards are not evaluated),
// fallthrough falls into the next clause, and a missing default adds a
// head→done edge.
func (b *builder) switchBody(body *ast.BlockStmt, label string, _ *Block) {
	head := b.cur
	done := b.newBlock("switch.done")
	b.frames = append(b.frames, frame{label: label, breakTo: done})

	var clauses []*ast.CaseClause
	for _, s := range body.List {
		if cc, ok := s.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock("case")
		head.Succs = append(head.Succs, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		head.Succs = append(head.Succs, done)
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		fallsThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				fallsThrough = true
			}
			b.stmt(st)
		}
		if fallsThrough && i+1 < len(blocks) {
			b.jump(blocks[i+1])
		}
		b.jump(done)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	done := b.newBlock("select.done")
	b.frames = append(b.frames, frame{label: label, breakTo: done})
	for _, st := range s.Body.List {
		cc, ok := st.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock("comm")
		head.Succs = append(head.Succs, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.jump(done)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

// resolveGotos patches forward gotos now that every label block exists.
// Gotos to labels the source never defines (impossible in type-checked
// code) are dropped.
func (b *builder) resolveGotos() {
	for _, pg := range b.pendingGotos {
		if dst, ok := b.labels[pg.label]; ok {
			pg.from.Succs = append(pg.from.Succs, dst)
		}
	}
}

// isTerminalCall reports whether the expression statement unconditionally
// stops the function: a call to the panic built-in or os.Exit-style
// terminators (matched by name only — precision here only prunes dead
// edges, it never adds them).
func isTerminalCall(e ast.Expr) bool {
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
