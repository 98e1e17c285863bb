// Package loader parses and type-checks Go packages for the lint suite
// using only the standard library: package enumeration shells out to
// `go list -export -deps`, syntax comes from go/parser, and types come
// from go/types.
//
// One importer serves every load. A package of the module (anything outside
// the standard library) is type-checked from source once and imported by
// its dependents as that very *types.Package, so the whole run shares one
// type universe, recorded in one types.Info; everything else is read from
// the compiler's export data, which `go list -export` builds or finds in
// the build cache.
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
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package. Every package loaded from
// one Module shares its Fset and TypesInfo.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Entry is one matched package before type-checking.
type Entry struct {
	ImportPath string
	// GoFiles are the package's non-test Go files, as absolute paths.
	GoFiles []string
}

// Module is one `go list` result: the matched packages in dependency order
// plus the file set, type information and importer shared by every package
// loaded from it.
type Module struct {
	// Entries are the matched packages, dependencies before dependents.
	Entries []Entry

	fset    *token.FileSet
	info    *types.Info
	source  map[string]Entry          // listed packages checked from source
	checked map[string]*types.Package // source packages checked so far
	export  map[string]string         // export data file per listed package
	gc      types.Importer            // reads export data through export
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// List expands the package patterns (e.g. "./...") relative to dir ("" =
// the working directory) and returns the matched packages in dependency
// order, without type-checking anything. Test files are not listed: the
// lint suite checks shipped code, and external test packages would need a
// second type-checking universe. A package that does not compile fails the
// listing, with the compiler's message naming it.
func List(dir string, patterns []string) (*Module, error) {
	m := &Module{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Implicits:  map[ast.Node]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
		source:  map[string]Entry{},
		checked: map[string]*types.Package{},
		export:  map[string]string{},
	}
	m.gc = importer.ForCompiler(m.fset, "gc", m.lookup)
	if len(patterns) == 0 {
		return m, nil // `go list` would read no patterns as "."
	}
	args := append([]string{"list", "-json", "-export", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("loader: go list %s: %v\n%s", strings.Join(patterns, " "), err, errBuf.String())
	}

	// -deps lists every package after all of its dependencies.
	dec := json.NewDecoder(&out)
	for dec.More() {
		var le listEntry
		if err := dec.Decode(&le); err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %v", err)
		}
		m.export[le.ImportPath] = le.Export
		e := Entry{ImportPath: le.ImportPath}
		for _, f := range le.GoFiles {
			e.GoFiles = append(e.GoFiles, filepath.Join(le.Dir, f))
		}
		if !le.Standard {
			m.source[e.ImportPath] = e
		}
		if !le.DepOnly {
			m.Entries = append(m.Entries, e)
		}
	}
	return m, nil
}

// Import resolves an import for the type checker: a module package from
// its source check (running it now if the package lies outside the
// patterns), anything else from export data.
func (m *Module) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	if e, ok := m.source[path]; ok {
		pkg, err := m.LoadPackage(e)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.gc.Import(path)
}

// lookup opens the export data `go list -export` reported for path.
func (m *Module) lookup(path string) (io.ReadCloser, error) {
	file := m.export[path]
	if file == "" {
		return nil, fmt.Errorf("loader: no export data for %s", path)
	}
	return os.Open(file)
}

// Load type-checks every matched package, in dependency order.
func (m *Module) Load() ([]*Package, error) {
	pkgs := make([]*Package, 0, len(m.Entries))
	for _, e := range m.Entries {
		pkg, err := m.LoadPackage(e)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadPackage parses and type-checks one listed package. A package of the
// module is checked once; its dependents import the result.
func (m *Module) LoadPackage(e Entry) (*Package, error) {
	pkg, err := m.check(e.ImportPath, e.GoFiles)
	if err != nil {
		return nil, err
	}
	if _, ok := m.source[e.ImportPath]; ok {
		m.checked[e.ImportPath] = pkg.Types
	}
	return pkg, nil
}

// LoadDir type-checks the single package rooted at dir under the given
// import path, listing its imports from dir. Used by the analysistest
// harness over testdata corpora, which `go list ./...` never matches.
func LoadDir(dir, importPath string) (*Package, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("loader: %v", err)
	}
	var files, imports []string
	for _, n := range names {
		if n.IsDir() || !strings.HasSuffix(n.Name(), ".go") {
			continue
		}
		file := filepath.Join(dir, n.Name())
		files = append(files, file)
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			return nil, fmt.Errorf("loader: %v", err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value) // the parser accepted the literal
			imports = append(imports, path)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}
	m, err := List(dir, imports)
	if err != nil {
		return nil, err
	}
	return m.check(importPath, files)
}

// check parses the given files of one package and type-checks them.
func (m *Module) check(importPath string, goFiles []string) (*Package, error) {
	astFiles := make([]*ast.File, 0, len(goFiles))
	for _, file := range goFiles {
		f, err := parser.ParseFile(m.fset, file, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: %v", err)
		}
		astFiles = append(astFiles, f)
	}
	conf := types.Config{Importer: m}
	tpkg, err := conf.Check(importPath, m.fset, astFiles, m.info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %v", importPath, err)
	}
	return &Package{
		PkgPath:   importPath,
		Fset:      m.fset,
		Files:     astFiles,
		Types:     tpkg,
		TypesInfo: m.info,
	}, nil
}
