// Command mlstar-lint is the repository's lint gate: it runs go vet plus
// the project-specific analyzers over the given package patterns and exits
// non-zero on any finding.
//
// The suite has two layers. The syntactic analyzers (determinism, vecalias,
// floateq, errdiscard, gocapture, obspure, pkgdoc) check one construct at a
// time. The flow-sensitive analyzers (costcharge, buflife, detflow) run the
// dataflow engine in internal/analysis — CFGs, an intra-module call graph,
// and cross-package function summaries ("facts") — so they follow values
// and effects across statements and function boundaries.
//
// Usage:
//
//	mlstar-lint ./...                # the CI gate
//	mlstar-lint -fix ./...           # apply suggested fixes in place
//	mlstar-lint -vet=false ./...     # custom analyzers only
//	mlstar-lint -cache=false ./...   # ignore and do not write the result cache
//	mlstar-lint -list                # describe the analyzers and their scopes
//
// Results are memoized in .mlstar-lint-cache.json at the module root, keyed
// by the analyzer binary's own hash plus each package's file contents and
// dependency keys (see cache.go); a warm run re-checks nothing. -stats
// prints the hit/miss split and the suite's wall time.
//
// Findings are suppressed per statement with `//mlstar:nolint <analyzer> --
// reason`; a malformed or unattached directive is itself reported as a
// finding of the analyzer "nolint". Each analyzer applies to a fixed set of
// package-path prefixes (its scope); -list prints them. Analyzers marked
// [facts] also run outside their scope with reporting disabled, so their
// cross-package summaries cover helper packages too.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"mllibstar/internal/analysis"
	"mllibstar/internal/analysis/buflife"
	"mllibstar/internal/analysis/costcharge"
	"mllibstar/internal/analysis/determinism"
	"mllibstar/internal/analysis/detflow"
	"mllibstar/internal/analysis/errdiscard"
	"mllibstar/internal/analysis/floateq"
	"mllibstar/internal/analysis/gocapture"
	"mllibstar/internal/analysis/loader"
	"mllibstar/internal/analysis/obspure"
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
	gocapture.Analyzer,
	obspure.Analyzer,
	pkgdoc.Analyzer,
}

func main() {
	var (
		vet   = flag.Bool("vet", true, "also run go vet on the same patterns")
		list  = flag.Bool("list", false, "describe the analyzers and exit")
		fix   = flag.Bool("fix", false, "apply suggested fixes to the source files and exit")
		cache = flag.Bool("cache", true, "memoize results in "+cacheFileName+" at the module root")
		stats = flag.Bool("stats", false, "print cache hit/miss statistics")
	)
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

	failed := false
	if *vet && !*fix {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed = true
		}
	}

	start := time.Now()
	res, err := runSuite(patterns, *cache && !*fix, *fix)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlstar-lint: %v\n", err)
		os.Exit(2)
	}
	elapsed := time.Since(start)

	if *stats {
		fmt.Fprintf(os.Stderr, "mlstar-lint: %d package(s): %d cached, %d analyzed in %s\n",
			res.hits+res.misses, res.hits, res.misses, elapsed.Round(time.Millisecond))
	}

	if *fix {
		applyFixes(res)
		return
	}

	sort.Slice(res.findings, func(i, j int) bool {
		a, b := res.findings[i], res.findings[j]
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
	for _, f := range res.findings {
		fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
	if len(res.findings) > 0 {
		fmt.Printf("mlstar-lint: %d finding(s)\n", len(res.findings))
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// result is one suite run's output.
type result struct {
	findings     []finding
	fixables     []analysis.Diagnostic // diagnostics carrying fixes (fix mode only)
	fset         *token.FileSet
	hits, misses int
}

// runSuite lists the packages, answers warm ones from the cache, and runs
// the analyzers over the rest in dependency order, threading the shared
// fact store through so interprocedural summaries cross package boundaries.
func runSuite(patterns []string, useCache, collectFixes bool) (*result, error) {
	mod, err := loader.List("", patterns)
	if err != nil {
		return nil, err
	}

	seed, err := binarySeed()
	if err != nil {
		return nil, err
	}
	cPath := cachePath()
	var persisted *cacheFile
	if useCache {
		persisted = loadCache(cPath, seed)
	}
	fresh := &cacheFile{Seed: seed, Packages: map[string]cacheEntry{}}

	res := &result{}
	facts := analysis.NewFacts()
	sup := analysis.NewSuppressor()
	keys := map[string]string{}

	for _, e := range mod.Entries {
		key, err := packageKey(seed, e, keys)
		if err != nil {
			return nil, err
		}
		keys[e.ImportPath] = key

		if persisted != nil {
			if ce, ok := persisted.Packages[e.ImportPath]; ok && ce.Key == key {
				// Warm: replay the package's exported facts so colder
				// dependents can still import them, and reuse its findings.
				facts.Replay(ce.Facts)
				res.findings = append(res.findings, ce.Findings...)
				fresh.Packages[e.ImportPath] = ce
				res.hits++
				continue
			}
		}
		res.misses++

		pkg, err := mod.LoadPackage(e)
		if err != nil {
			return nil, err
		}
		res.fset = pkg.Fset

		var pkgFindings []finding
		for _, mis := range sup.AddPackage(pkg.Fset, pkg.Files) {
			pos := pkg.Fset.Position(mis.Pos)
			pkgFindings = append(pkgFindings, finding{
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Analyzer: "nolint", Message: mis.Message,
			})
		}

		before := facts.Len()
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
				pkgFindings = append(pkgFindings, finding{
					File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Analyzer: name, Message: d.Message,
				})
				if collectFixes && len(d.Fixes) > 0 {
					res.fixables = append(res.fixables, d)
				}
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		}

		res.findings = append(res.findings, pkgFindings...)
		fresh.Packages[e.ImportPath] = cacheEntry{
			Key:      key,
			Findings: pkgFindings,
			Facts:    facts.Since(before),
		}
	}

	if useCache {
		saveCache(cPath, fresh)
	}
	return res, nil
}

// applyFixes rewrites the source files with the suggested fixes collected
// during the run and reports the tally. Running lint-fix until it applies 0
// fixes converges: ApplyFixes defers overlapping edits to the next round.
func applyFixes(res *result) {
	if len(res.fixables) == 0 {
		fmt.Println("mlstar-lint: applied 0 fix(es)")
		return
	}
	changed, applied, skipped, err := analysis.ApplyFixes(res.fset, res.fixables, os.ReadFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlstar-lint: %v\n", err)
		os.Exit(2)
	}
	files := make([]string, 0, len(changed))
	for f := range changed { //mlstar:nolint determinism -- keys sorted before use
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		if err := os.WriteFile(f, changed[f], 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mlstar-lint: writing %s: %v\n", f, err)
			os.Exit(2)
		}
	}
	fmt.Printf("mlstar-lint: applied %d fix(es) in %d file(s), skipped %d\n", applied, len(files), skipped)
}
