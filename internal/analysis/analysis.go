// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, built only on the standard library so the
// repository keeps its zero-dependency policy. It provides the Analyzer and
// Pass types that the mlstar lint suite (cmd/mlstar-lint) drives and the
// //mlstar:nolint suppressor; the sibling packages (determinism, vecalias,
// buflife, costcharge, floateq, errdiscard, pkgdoc) implement the
// project-specific invariants on top of it.
//
// The framework mirrors the upstream API shape — an Analyzer with a Run
// function over a Pass carrying syntax and type information — with one
// difference: a Pass holds every package of the run at once, in one type
// universe. An interprocedural analyzer then builds one call graph over the
// whole module and solves its function summaries in one fixpoint, where
// upstream would export per-package facts and import them downstream.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"mllibstar/internal/analysis/callgraph"
	"mllibstar/internal/analysis/loader"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and nolint comments.
	// It must be a valid Go identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string

	// DefaultScope lists package-path prefixes whose findings the driver
	// keeps when it runs the suite over the whole repository. Empty means
	// every package. The analyzer still sees every package, so summaries of
	// helpers outside the scope (internal/vec, say) feed findings inside
	// it. Test harnesses ignore the scope.
	DefaultScope []string

	// Run applies the check to every package of the pass and reports
	// findings through pass.Report. The returned error aborts the whole
	// lint run (reserved for internal failures, not findings).
	Run func(pass *Pass) error
}

// InScope reports whether the analyzer's DefaultScope covers the package
// path. An empty scope covers everything.
func (a *Analyzer) InScope(pkgPath string) bool {
	if len(a.DefaultScope) == 0 {
		return true
	}
	for _, prefix := range a.DefaultScope {
		if pkgPath == prefix || (len(pkgPath) > len(prefix) && pkgPath[:len(prefix)] == prefix && pkgPath[len(prefix)] == '/') {
			return true
		}
	}
	return false
}

// Pass carries the parsed and type-checked packages of one run to an
// analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Pkgs are the packages under analysis, dependencies first. They share
	// Fset and TypesInfo.
	Pkgs      []*loader.Package
	Fset      *token.FileSet
	Files     []*ast.File // every file of Pkgs
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver installs it.
	Report func(Diagnostic)

	program **callgraph.Program // built on first use, shared by For's copies
}

// NewPass builds a pass over pkgs, which must come from one loader.Module
// (or be one corpus package). For hands it to each analyzer.
func NewPass(pkgs []*loader.Package) *Pass {
	p := &Pass{Pkgs: pkgs, program: new(*callgraph.Program)}
	for _, pkg := range pkgs {
		p.Fset, p.TypesInfo = pkg.Fset, pkg.TypesInfo
		p.Files = append(p.Files, pkg.Files...)
	}
	return p
}

// For returns a copy of the pass for one analyzer, reporting through
// report. The copies share one Program.
func (p *Pass) For(a *Analyzer, report func(Diagnostic)) *Pass {
	q := *p
	q.Analyzer, q.Report = a, report
	return &q
}

// Program returns the call graph of the pass's packages with every
// function's CFG, built once and shared by the interprocedural analyzers.
func (p *Pass) Program() *callgraph.Program {
	if *p.program == nil {
		*p.program = callgraph.NewProgram(p.TypesInfo, p.Files)
	}
	return *p.program
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Inspect walks every file of the pass in depth-first order, calling f for
// each node. If f returns false for a node, its children are skipped.
func (p *Pass) Inspect(f func(ast.Node) bool) {
	for _, file := range p.Files {
		ast.Inspect(file, f)
	}
}

// IsFloat reports whether t's underlying type is a floating-point scalar.
func IsFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// IsFloatSlice reports whether t's underlying type is a slice of
// floating-point scalars (e.g. []float64 or a named vector type over it).
func IsFloatSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && IsFloat(s.Elem())
}

// PkgOf returns the package of the pass whose files hold pos, or nil.
func (p *Pass) PkgOf(pos token.Pos) *loader.Package {
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			if f.FileStart <= pos && pos <= f.FileEnd {
				return pkg
			}
		}
	}
	return nil
}

// IsPackageVar reports whether obj is a package-level variable: state that
// outlives every call.
func IsPackageVar(obj types.Object) bool {
	_, isVar := obj.(*types.Var)
	return isVar && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// IsCharge reports whether fn is a simulation charge: an operation that
// consumes virtual time or bytes. ComputeKind, ComputeAsyncKind,
// ChargeAsync, SendPhase, RecvN and WaitUntil exist nowhere else in the
// module, so they match by name alone and corpora can mirror them; the
// generic names Send, Compute and Recv match only in simnet, Wait only in
// des.
func IsCharge(fn *types.Func) bool {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	switch fn.Name() {
	case "ComputeKind", "ComputeAsyncKind", "ChargeAsync", "SendPhase", "RecvN", "WaitUntil":
		return true
	case "Send", "Compute", "Recv":
		return pkg == "mllibstar/internal/simnet"
	case "Wait":
		return pkg == "mllibstar/internal/des"
	}
	return false
}

// FuncOf resolves the called function object of a call expression, looking
// through parenthesized expressions. It returns nil for calls through
// function-typed variables, conversions, and built-ins.
func FuncOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
