// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, built only on the standard library so the
// repository keeps its zero-dependency policy. It provides the Analyzer and
// Pass types that the mlstar lint suite (cmd/mlstar-lint) drives, and the
// sibling packages determinism, vecalias, floateq, errdiscard, and gocapture
// implement the project-specific invariants on top of it.
//
// The framework deliberately mirrors the upstream API shape — an Analyzer
// with a Run function over a Pass carrying the package's syntax and type
// information — so the analyzers could be ported to the real go/analysis
// multichecker verbatim if the dependency policy ever changes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and nolint comments.
	// It must be a valid Go identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer checks.
	Doc string

	// DefaultScope lists package-path prefixes the analyzer applies to when
	// the driver runs it over the whole repository. Empty means every
	// package. Test harnesses ignore the scope and run the analyzer on
	// whatever package they load.
	DefaultScope []string

	// FactsAll asks the driver to run the analyzer on every package — with
	// reporting disabled outside DefaultScope — so cross-package facts are
	// computed even for helper packages the analyzer does not diagnose
	// (e.g. detflow needs taint summaries for internal/vec although its
	// findings are scoped to simulated code).
	FactsAll bool

	// Run applies the check to one package and reports findings through
	// pass.Report. The returned error aborts the whole lint run (reserved
	// for internal failures, not findings).
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

// Pass carries one package's parsed and type-checked form to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts is the cross-package fact store, shared across the whole lint
	// run. The driver processes packages in dependency order, so facts
	// exported while analyzing a package's dependencies are importable
	// here. Nil in harnesses that run a single package; use FactStore to
	// get a non-nil view.
	Facts *Facts

	// Report delivers one diagnostic. The driver installs it.
	Report func(Diagnostic)
}

// FactStore returns the pass's fact store, creating an empty local one when
// the driver did not install any (single-package test harnesses).
func (p *Pass) FactStore() *Facts {
	if p.Facts == nil {
		p.Facts = NewFacts()
	}
	return p.Facts
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// Fixes are mechanical rewrites that resolve the finding, applied by
	// `mlstar-lint -fix`. Optional; the first applicable fix wins.
	Fixes []SuggestedFix
}

// SuggestedFix is one self-contained mechanical rewrite.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// TextEdit replaces the source range [Pos, End) with NewText. A pure
// insertion has Pos == End; a pure deletion has empty NewText.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportFix reports a diagnostic carrying one suggested fix.
func (p *Pass) ReportFix(pos token.Pos, fix SuggestedFix, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Fixes: []SuggestedFix{fix}})
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
