// Package suite is the lint suite's one list of analyzers, in reporting
// order: cmd/mlstar-lint runs it, and the root docs test checks README.md
// and ARCHITECTURE.md against it, so an analyzer added here is documented
// or the docs test fails.
package suite

import (
	"mllibstar/internal/analysis"
	"mllibstar/internal/analysis/determinism"
	"mllibstar/internal/analysis/errdiscard"
	"mllibstar/internal/analysis/floateq"
	"mllibstar/internal/analysis/pkgdoc"
)

// Analyzers is the suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	floateq.Analyzer,
	errdiscard.Analyzer,
	pkgdoc.Analyzer,
}
