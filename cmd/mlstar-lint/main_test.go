package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mllibstar/internal/analysis/suite"
)

// TestDefaultScopesNamePackages requires every scope entry of every analyzer
// of the suite to cover a package of the module: an entry naming a moved or
// deleted package would otherwise drop its coverage without a word.
func TestDefaultScopesNamePackages(t *testing.T) {
	cmd := exec.Command("go", "list", "./...")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	pkgs := strings.Fields(string(out))
	for _, a := range suite.Analyzers {
		for _, entry := range a.DefaultScope {
			covered := false
			for _, pkg := range pkgs {
				if pkg == entry || strings.HasPrefix(pkg, entry+"/") {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("%s: scope entry %s covers no package of the module", a.Name, entry)
			}
		}
	}
}

// TestCrossPackageFacts runs the suite over a fixture module in which every
// finding of package a depends on a summary of package b: a helper that
// reaches obs, directly or, for the second finding, through a helper of
// package c, two package hops from a. Without the summaries crossing
// package boundaries, a would be clean.
func TestCrossPackageFacts(t *testing.T) {
	findings, err := runSuite("testdata/twopkg", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		analyzer string
		line     int
	}{
		{"costcharge", 11},
		{"costcharge", 15},
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d: %+v", len(findings), len(want), findings)
	}
	for i, w := range want {
		f := findings[i]
		if f.Analyzer != w.analyzer || f.Line != w.line || filepath.Base(f.File) != "a.go" {
			t.Errorf("finding %d = %s:%d [%s] %s, want a.go:%d [%s]",
				i, filepath.Base(f.File), f.Line, f.Analyzer, f.Message, w.line, w.analyzer)
		}
	}
}
