// Package loader parses and type-checks Go packages for the lint suite
// using only the standard library: package enumeration shells out to
// `go list -json`, syntax comes from go/parser, and types come from
// go/types with the source-based importer (which resolves both standard
// library and module-internal imports by type-checking them from source).
//
// Listing and loading are separate steps so the driver can skip the
// expensive one: List returns the matched packages in dependency order with
// their file lists and imports (enough to compute content-hash cache keys),
// and Module.LoadPackage type-checks one package on demand. A fully warm
// lint run lists the tree and loads nothing.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Entry is one matched package before type-checking: everything `go list`
// knows that the driver needs for cache keys and scheduling.
type Entry struct {
	ImportPath string
	Dir        string
	// GoFiles are the package's non-test Go files, as absolute paths.
	GoFiles []string
	// Imports are the package's direct imports (all of them; the driver
	// intersects with the matched set for dependency ordering).
	Imports []string
}

// Module is one `go list` result: the matched packages in dependency order
// plus the shared file set and importer used to load them on demand.
type Module struct {
	// Dir is the directory the patterns were resolved in ("" = cwd).
	Dir string
	// Entries are the matched packages, dependencies before dependents.
	Entries []Entry

	fset *token.FileSet
	imp  types.Importer
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
}

// List expands the package patterns (e.g. "./...") relative to dir and
// returns the matched packages in dependency order, without type-checking
// anything. Test files are not listed: the lint suite checks shipped code,
// and external test packages would need a second type-checking universe.
func List(dir string, patterns []string) (*Module, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("loader: go list %s: %v\n%s", strings.Join(patterns, " "), err, errBuf.String())
	}

	var entries []Entry
	dec := json.NewDecoder(&out)
	for dec.More() {
		var e listEntry
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %v", err)
		}
		files := make([]string, 0, len(e.GoFiles))
		for _, f := range e.GoFiles {
			files = append(files, filepath.Join(e.Dir, f))
		}
		entries = append(entries, Entry{
			ImportPath: e.ImportPath,
			Dir:        e.Dir,
			GoFiles:    files,
			Imports:    e.Imports,
		})
	}

	fset := token.NewFileSet()
	return &Module{
		Dir:     dir,
		Entries: topoOrder(entries),
		fset:    fset,
		imp:     importer.ForCompiler(fset, "source", nil),
	}, nil
}

// topoOrder sorts entries dependencies-first (Kahn's algorithm over the
// imports restricted to the matched set), breaking ties by import path so
// the order is deterministic. Cycles cannot occur in valid Go packages;
// leftover entries (only possible on invalid input) are appended sorted.
func topoOrder(entries []Entry) []Entry {
	sort.Slice(entries, func(i, j int) bool { return entries[i].ImportPath < entries[j].ImportPath })
	inSet := make(map[string]int, len(entries))
	for i, e := range entries {
		inSet[e.ImportPath] = i
	}
	indeg := make([]int, len(entries))
	dependents := make([][]int, len(entries))
	for i, e := range entries {
		for _, imp := range e.Imports {
			if j, ok := inSet[imp]; ok {
				indeg[i]++
				dependents[j] = append(dependents[j], i)
			}
		}
	}
	var ready []int
	for i := range entries {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	out := make([]Entry, 0, len(entries))
	done := make([]bool, len(entries))
	for len(ready) > 0 {
		sort.Ints(ready)
		i := ready[0]
		ready = ready[1:]
		out = append(out, entries[i])
		done[i] = true
		for _, d := range dependents[i] {
			if indeg[d]--; indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	for i := range entries {
		if !done[i] {
			out = append(out, entries[i])
		}
	}
	return out
}

// LoadPackage parses and type-checks one listed package. Packages loaded
// from the same Module share a file set and importer, so a dependency
// already type-checked (directly or as an import) is reused.
func (m *Module) LoadPackage(e Entry) (*Package, error) {
	// The source importer resolves module-internal import paths through
	// go/build, which needs the process working directory to sit inside the
	// module. Pin it for the duration of the load.
	restore, err := pushd(m.Dir)
	if err != nil {
		return nil, err
	}
	defer restore()
	names := make([]string, 0, len(e.GoFiles))
	for _, f := range e.GoFiles {
		names = append(names, filepath.Base(f))
	}
	return check(m.fset, m.imp, e.ImportPath, e.Dir, names)
}

// LoadDir type-checks the single package rooted at dir under the given
// import path. Used by the analysistest harness over testdata corpora.
func LoadDir(dir, importPath string) (*Package, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("loader: %v", err)
	}
	var goFiles []string
	for _, f := range files {
		if !f.IsDir() && strings.HasSuffix(f.Name(), ".go") {
			goFiles = append(goFiles, f.Name())
		}
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	return check(fset, imp, importPath, dir, goFiles)
}

// check parses the named files of one package and type-checks them.
func check(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*Package, error) {
	astFiles := make([]*ast.File, 0, len(goFiles))
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: %v", err)
		}
		astFiles = append(astFiles, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, astFiles, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %v", importPath, err)
	}
	return &Package{
		PkgPath:   importPath,
		Dir:       dir,
		Fset:      fset,
		Files:     astFiles,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// pushd chdirs to dir and returns a function restoring the previous working
// directory. A no-op when dir is empty.
func pushd(dir string) (func(), error) {
	if dir == "" {
		return func() {}, nil
	}
	prev, err := os.Getwd()
	if err != nil {
		return nil, fmt.Errorf("loader: %v", err)
	}
	if err := os.Chdir(dir); err != nil {
		return nil, fmt.Errorf("loader: %v", err)
	}
	return func() { _ = os.Chdir(prev) }, nil
}
