// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, built only on the standard library so the
// repository keeps its zero-dependency policy. It provides the Analyzer and
// Pass types that the mlstar lint suite (cmd/mlstar-lint) drives and the
// //mlstar:nolint suppressor; the sibling packages (determinism, floateq,
// errdiscard, pkgdoc) implement the project-specific invariants on top of
// it, each one construct at a time.
//
// The framework mirrors the upstream API shape — an Analyzer with a Run
// function over a Pass carrying syntax and type information — with one
// difference: a Pass holds every package of the run at once, in one type
// universe, so the module is loaded and type-checked once for the suite.
//
// What crosses function boundaries is checked at run time, not here. Buffer
// ownership: the pooled-buffer poison (vec.Pool, engine.Header,
// simnet.Message) and the tier-1 tests. The flow of map-order values: the
// goldens. That offloaded closures neither record telemetry nor charge
// virtual time: `go test -race` (the obs sink takes no lock), the des
// kernel (a charge off the simulation thread panics) and the goldens (a
// duplicated charge moves them).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

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
	// every package. Test harnesses ignore the scope.
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
}

// NewPass builds a pass over pkgs, which must come from one loader.Module
// (or be one corpus package). For hands it to each analyzer.
func NewPass(pkgs []*loader.Package) *Pass {
	p := &Pass{Pkgs: pkgs}
	for _, pkg := range pkgs {
		p.Fset, p.TypesInfo = pkg.Fset, pkg.TypesInfo
		p.Files = append(p.Files, pkg.Files...)
	}
	return p
}

// For returns a copy of the pass for one analyzer, reporting through
// report.
func (p *Pass) For(a *Analyzer, report func(Diagnostic)) *Pass {
	q := *p
	q.Analyzer, q.Report = a, report
	return &q
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
