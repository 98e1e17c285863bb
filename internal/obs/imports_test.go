package obs

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestObsImportsNoCostModel holds observation to its one rule, observe
// never charges: obs must not reach, through any chain of module imports,
// a package that consumes simulated time or bytes. A charge from the
// telemetry layer would double-account the very cost it reports.
func TestObsImportsNoCostModel(t *testing.T) {
	const module = "mllibstar/"
	forbidden := map[string]bool{}
	for _, p := range []string{"des", "simnet", "engine", "allreduce", "ps"} {
		forbidden[module+"internal/"+p] = true
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	var visit func(pkg string, chain []string)
	visit = func(pkg string, chain []string) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		chain = append(chain, pkg)
		if forbidden[pkg] {
			t.Errorf("obs reaches a charging package: %s", strings.Join(chain, " → "))
			return
		}
		files, err := filepath.Glob(filepath.Join("../..", strings.TrimPrefix(pkg, module), "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files for %s (%v)", pkg, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, module) {
					visit(p, chain)
				}
			}
		}
	}
	visit(module+"internal/obs", nil)
}
