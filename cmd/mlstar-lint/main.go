// Command mlstar-lint is the repository's lint gate: it runs go vet plus
// the project-specific analyzers over the given package patterns and exits
// non-zero on any finding.
//
// Each invariant it checks has one analyzer, and each analyzer checks one
// construct at a time: determinism, floateq, errdiscard and pkgdoc. What
// crosses function boundaries is checked at run time instead: buffer
// ownership by the pool poison, what map-order values reach by the goldens,
// and offload purity — no telemetry and no charge from a par pool closure —
// by `go test -race`, the des kernel and the goldens (ARCHITECTURE.md,
// "Static guarantees").
//
// Usage:
//
//	mlstar-lint ./...                # the CI gate
//	mlstar-lint -list                # describe the analyzers and their scopes
//
// Every run is cold: the loader type-checks the module's packages from
// source into one type universe and reads the standard library from the
// compiler's export data, so after `go build ./...` the whole tree takes a
// couple of seconds. Each analyzer then runs once, over every package.
//
// Findings are suppressed per statement with `//mlstar:nolint <analyzer> --
// reason`; a malformed or unattached directive, or one naming no analyzer
// of the suite, is itself reported as a finding of the analyzer "nolint".
// Each analyzer reports in a fixed set of package-path prefixes (its
// scope); -list prints them.
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
	"mllibstar/internal/analysis/loader"
	"mllibstar/internal/analysis/suite"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range suite.Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
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

	findings, err := runSuite(patterns)
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

// runSuite lists and loads the packages matched by patterns in the working
// directory and runs each analyzer once over all of them,
// keeping the findings inside its scope. The findings come back sorted by
// position.
func runSuite(patterns []string) ([]finding, error) {
	mod, err := loader.List("", patterns)
	if err != nil {
		return nil, err
	}
	pkgs, err := mod.Load()
	if err != nil {
		return nil, err
	}

	var findings []finding
	names := make([]string, len(suite.Analyzers))
	for i, a := range suite.Analyzers {
		names[i] = a.Name
	}
	sup := analysis.NewSuppressor(names...)
	for _, pkg := range pkgs {
		for _, mis := range sup.AddPackage(pkg.Fset, pkg.Files) {
			pos := pkg.Fset.Position(mis.Pos)
			findings = append(findings, finding{
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Analyzer: "nolint", Message: mis.Message,
			})
		}
	}

	base := analysis.NewPass(pkgs)
	for _, a := range suite.Analyzers {
		pass := base.For(a, func(d analysis.Diagnostic) {
			pos := base.Fset.Position(d.Pos)
			if !a.InScope(base.PkgOf(d.Pos).PkgPath) || sup.Suppressed(pos.Filename, pos.Line, a.Name) {
				return
			}
			findings = append(findings, finding{
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Analyzer: a.Name, Message: d.Message,
			})
		})
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
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
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings, nil
}
