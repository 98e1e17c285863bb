// Command mlstar-lint is the repository's lint gate: it runs go vet plus
// the project-specific analyzers over the given package patterns and exits
// non-zero on any finding.
//
// The suite has two layers. The syntactic analyzers (determinism, vecalias,
// floateq, errdiscard, pkgdoc) check one construct at a time. The
// flow-sensitive analyzers (costcharge, buflife, detflow) run the dataflow
// engine in internal/analysis — CFGs, an intra-module call graph, and
// cross-package function summaries ("facts") — so they follow values and
// effects across statements and function boundaries.
//
// Usage:
//
//	mlstar-lint ./...                # the CI gate
//	mlstar-lint -list                # describe the analyzers and their scopes
//
// Every run is cold: the loader type-checks the module's packages from
// source and reads the standard library from the compiler's export data,
// so after `go build ./...` the whole tree takes a couple of seconds.
//
// Findings are suppressed per statement with `//mlstar:nolint <analyzer> --
// reason`; a malformed or unattached directive is itself reported as a
// finding of the analyzer "nolint". Each analyzer applies to a fixed set of
// package-path prefixes (its scope); -list prints them. Analyzers marked
// [facts] also run outside their scope with reporting disabled, so their
// cross-package summaries cover helper packages too.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"

	"mllibstar/internal/analysis"
	"mllibstar/internal/analysis/buflife"
	"mllibstar/internal/analysis/costcharge"
	"mllibstar/internal/analysis/determinism"
	"mllibstar/internal/analysis/detflow"
	"mllibstar/internal/analysis/errdiscard"
	"mllibstar/internal/analysis/floateq"
	"mllibstar/internal/analysis/loader"
	"mllibstar/internal/analysis/pkgdoc"
	"mllibstar/internal/analysis/vecalias"
)

// analyzers is the suite, in reporting order. The flow-sensitive analyzers
// subsume parts of their syntactic predecessors but both layers run: the
// syntactic ones are cheap and catch constructs the dataflow layer
// deliberately leaves to them.
var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	detflow.Analyzer,
	vecalias.Analyzer,
	buflife.Analyzer,
	costcharge.Analyzer,
	floateq.Analyzer,
	errdiscard.Analyzer,
	pkgdoc.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			tag := ""
			if a.FactsAll {
				tag = " [facts]"
			}
			fmt.Printf("%-12s %s%s\n", a.Name, a.Doc, tag)
			if len(a.DefaultScope) > 0 {
				fmt.Printf("%-12s scope: %s\n", "", strings.Join(a.DefaultScope, ", "))
			} else {
				fmt.Printf("%-12s scope: all packages\n", "")
			}
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// go vet runs beside the suite; its output is buffered and printed,
	// before the findings, once both are done.
	var vetOut, vetErr bytes.Buffer
	vet := exec.Command("go", append([]string{"vet"}, patterns...)...)
	vet.Stdout, vet.Stderr = &vetOut, &vetErr
	started := vet.Start()

	findings, err := runSuite("", patterns)
	failed := started != nil || vet.Wait() != nil
	_, _ = os.Stdout.Write(vetOut.Bytes()) // nowhere left to report a failed write
	_, _ = os.Stderr.Write(vetErr.Bytes())
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlstar-lint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Printf("mlstar-lint: %d finding(s)\n", len(findings))
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// finding is one reported diagnostic.
type finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// runSuite lists the packages matched by patterns in dir ("" = the working
// directory) and runs the analyzers over them in dependency order,
// threading one fact store through so interprocedural summaries cross
// package boundaries. The findings come back sorted by position.
func runSuite(dir string, patterns []string) ([]finding, error) {
	mod, err := loader.List(dir, patterns)
	if err != nil {
		return nil, err
	}

	var findings []finding
	facts := analysis.NewFacts()
	sup := analysis.NewSuppressor()
	for _, e := range mod.Entries {
		pkg, err := mod.LoadPackage(e)
		if err != nil {
			return nil, err
		}

		for _, mis := range sup.AddPackage(pkg.Fset, pkg.Files) {
			pos := pkg.Fset.Position(mis.Pos)
			findings = append(findings, finding{
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Analyzer: "nolint", Message: mis.Message,
			})
		}

		for _, a := range analyzers {
			inScope := a.InScope(pkg.PkgPath)
			if !inScope && !a.FactsAll {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Facts:     facts,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				if !inScope {
					return // facts-only visit of an out-of-scope package
				}
				pos := pkg.Fset.Position(d.Pos)
				if sup.Suppressed(pos.Filename, pos.Line, name) {
					return
				}
				findings = append(findings, finding{
					File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Analyzer: name, Message: d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
