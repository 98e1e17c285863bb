// Package pkgdoc implements the package-documentation lint: every package
// must carry a doc comment, and library packages must follow the go/doc
// convention of starting it with "Package <name> ". Main packages only need
// a comment to be present — the cmd/ trees use the "Command <name> ..."
// form, while the examples/ programs open with a task description. In this
// repository the package comment is where the load-bearing contracts live
// (determinism rules, buffer ownership, byte-accounting semantics), so a
// missing one is not a style nit: it means a subsystem's invariants are
// undocumented.
//
// The comment may sit on any file of the package; the diagnostic is reported
// on the package clause of the first file (in filename order) when none
// carries one.
package pkgdoc

import (
	"go/ast"
	"sort"
	"strings"

	"mllibstar/internal/analysis"
)

// Analyzer is the package-documentation check; it applies to every package.
var Analyzer = &analysis.Analyzer{
	Name: "pkgdoc",
	Doc:  "require a package doc comment following the Package/Command convention",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, pkg := range pass.Pkgs {
		check(pass, pkg.Types.Name(), pkg.Files)
	}
	return nil
}

// check holds one package's files to the convention.
func check(pass *analysis.Pass, name string, pkgFiles []*ast.File) {
	if len(pkgFiles) == 0 {
		return
	}
	want := "Package " + name + " "
	if name == "main" {
		want = "" // any doc comment: "Command <name>" in cmd/, prose in examples/
	}
	var documented, malformed []*ast.File
	for _, f := range pkgFiles {
		if f.Doc == nil {
			continue
		}
		if strings.HasPrefix(f.Doc.Text(), want) {
			documented = append(documented, f)
		} else {
			malformed = append(malformed, f)
		}
	}
	if len(documented) > 0 {
		return
	}
	if len(malformed) > 0 {
		f := malformed[0]
		pass.Reportf(f.Package, "package doc comment must start with %q", strings.TrimRight(want, " "))
		return
	}
	files := append([]*ast.File(nil), pkgFiles...)
	sort.Slice(files, func(i, j int) bool {
		return pass.Fset.Position(files[i].Package).Filename <
			pass.Fset.Position(files[j].Package).Filename
	})
	pass.Reportf(files[0].Package, "package %s has no package doc comment", name)
}
