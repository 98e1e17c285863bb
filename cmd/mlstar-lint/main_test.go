package main

import (
	"os/exec"
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
