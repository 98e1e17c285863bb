// Package taint is the forward dataflow framework the flow-sensitive
// analyzers (buflife, detflow) run over the CFGs built by package cfg.
//
// The framework is a classic iterative worklist solver for a "may"
// analysis: the abstract state maps variables (types.Object) to a small
// bitmask of marks, states merge at control-flow joins by bitwise union,
// and the analyzer supplies a transfer function applied to each node of a
// block in order. Because merge only ever adds bits and block in-states
// grow monotonically, the iteration terminates even when the transfer
// function performs strong updates (clearing bits on rebinding).
//
// Analyzers typically run Solve to fixpoint with reporting disabled, then
// replay each block once from its final in-state with reporting enabled —
// the replay sees every state real execution could reach at that node. The
// deferred statements recorded by the CFG builder run at function exit, so
// lifetime analyses replay them against the exit in-state.
package taint

import (
	"go/ast"
	"go/types"

	"mllibstar/internal/analysis/cfg"
)

// Marks is a bitmask of analyzer-defined facts about one variable.
type Marks uint8

// State is the abstract store: which marks each variable carries. A
// missing entry means no marks.
type State map[types.Object]Marks

// Get returns o's marks.
func (s State) Get(o types.Object) Marks { return s[o] }

// Add sets bits on o's marks.
func (s State) Add(o types.Object, m Marks) {
	if m != 0 {
		s[o] |= m
	}
}

// Set replaces o's marks (a strong update; use on rebinding).
func (s State) Set(o types.Object, m Marks) {
	if m == 0 {
		delete(s, o)
		return
	}
	s[o] = m
}

// Clone returns an independent copy.
func (s State) Clone() State {
	out := make(State, len(s))
	for k, v := range s { //mlstar:nolint determinism -- map copy: per-key writes, order-insensitive
		out[k] = v
	}
	return out
}

// mergeInto unions src into dst, reporting whether dst changed.
func mergeInto(dst State, src State) bool {
	changed := false
	for k, v := range src { //mlstar:nolint determinism -- union of mark sets: per-key OR, order-insensitive
		if dst[k]&v != v {
			dst[k] |= v
			changed = true
		}
	}
	return changed
}

// Problem is one dataflow instance over one function graph.
type Problem struct {
	Graph *cfg.Graph
	// Entry seeds the entry block's in-state (e.g. parameter marks).
	Entry State
	// Transfer updates st in place for one node. It must be deterministic
	// in (n, st). It is called both during fixpoint iteration and during
	// Replay, so reporting belongs in a separate callback (see Replay).
	Transfer func(n ast.Node, st State)
}

// Solve iterates to fixpoint and returns the final in-state of every
// block. Every block is seeded onto the worklist (not just those whose
// in-state changes): a block reachable only through empty states still runs
// its transfer function, which is what introduces marks in the first place.
func (p *Problem) Solve() map[*cfg.Block]State {
	in := map[*cfg.Block]State{}
	entry := p.Entry
	if entry == nil {
		entry = State{}
	}
	for _, b := range p.Graph.Blocks {
		in[b] = State{}
	}
	in[p.Graph.Entry] = entry.Clone()

	work := make([]*cfg.Block, len(p.Graph.Blocks))
	copy(work, p.Graph.Blocks)
	queued := map[*cfg.Block]bool{}
	for _, b := range work {
		queued[b] = true
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false

		st := in[b].Clone()
		for _, n := range b.Nodes {
			p.Transfer(n, st)
		}
		for _, succ := range b.Succs {
			if mergeInto(in[succ], st) && !queued[succ] {
				queued[succ] = true
				work = append(work, succ)
			}
		}
	}
	return in
}

// Replay walks every block once from its solved in-state, calling visit
// before Transfer on each node — the reporting pass. Blocks are visited in
// graph order, so diagnostics come out deterministically. After the blocks,
// the function's deferred statements are replayed (in reverse syntactic
// order, as execution would run them) against the exit block's in-state.
func (p *Problem) Replay(in map[*cfg.Block]State, visit func(n ast.Node, st State)) {
	for _, b := range p.Graph.Blocks {
		st := in[b].Clone()
		for _, n := range b.Nodes {
			visit(n, st)
			p.Transfer(n, st)
		}
	}
	if len(p.Graph.Defers) > 0 {
		st := in[p.Graph.Exit].Clone()
		for i := len(p.Graph.Defers) - 1; i >= 0; i-- {
			d := p.Graph.Defers[i]
			visit(&deferredCall{DeferStmt: d}, st)
			p.Transfer(&deferredCall{DeferStmt: d}, st)
		}
	}
}

// deferredCall wraps a defer statement when it is replayed at exit, so the
// transfer function can tell the execution of the deferred call (at exit)
// from its registration (in normal flow).
type deferredCall struct {
	*ast.DeferStmt
}

// IsDeferredExec reports whether n is a deferred call replayed at function
// exit, returning the underlying defer statement.
func IsDeferredExec(n ast.Node) (*ast.DeferStmt, bool) {
	if d, ok := n.(*deferredCall); ok {
		return d.DeferStmt, true
	}
	return nil, false
}
