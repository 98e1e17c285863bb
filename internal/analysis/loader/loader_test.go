package loader

import (
	"go/types"
	"strings"
	"testing"
)

// loadAll lists patterns in the fixture module and loads every entry in
// order, keyed by import path.
func loadAll(t *testing.T, patterns ...string) (*Module, map[string]*Package) {
	t.Helper()
	m, err := List("testdata/mod", patterns)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]*Package{}
	for _, e := range m.Entries {
		p, err := m.LoadPackage(e)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[e.ImportPath] = p
	}
	return m, pkgs
}

// TestEntriesTopological: the matched packages, and only they, come out
// with every in-set import before its importer.
func TestEntriesTopological(t *testing.T) {
	m, pkgs := loadAll(t, "./...")
	var got []string
	index := map[string]int{}
	for i, e := range m.Entries {
		got = append(got, e.ImportPath)
		index[e.ImportPath] = i
	}
	if want := "example.com/mod/c example.com/mod/b example.com/mod/a"; strings.Join(got, " ") != want {
		t.Fatalf("entries = %v, want %s", got, want)
	}
	for path, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			if j, ok := index[imp.Path()]; ok && j > index[path] {
				t.Errorf("%s is listed before its import %s", path, imp.Path())
			}
		}
	}
}

// TestImportIsTheCheckedPackage: a module package is imported as the very
// *types.Package its own load checked, not as a second copy.
func TestImportIsTheCheckedPackage(t *testing.T) {
	m, pkgs := loadAll(t, "./...")
	for _, path := range []string{"example.com/mod/b", "example.com/mod/c"} {
		imported, err := m.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		if imported != pkgs[path].Types {
			t.Errorf("Import(%s) is not the package LoadPackage checked", path)
		}
	}
	var fromA *types.Package
	for _, imp := range pkgs["example.com/mod/a"].Types.Imports() {
		if imp.Path() == "example.com/mod/b" {
			fromA = imp
		}
	}
	if fromA != pkgs["example.com/mod/b"].Types {
		t.Error("a's import of b is not the package LoadPackage checked")
	}
}

// TestModuleDepOutsidePatterns: b lies between two matched packages but is
// not matched itself. It is checked from source on import, so a sees one
// c.T, not one from c's source and another from b's export data.
func TestModuleDepOutsidePatterns(t *testing.T) {
	m, pkgs := loadAll(t, "./a", "./c")
	if len(m.Entries) != 2 {
		t.Fatalf("entries = %+v, want a and c", m.Entries)
	}
	b, err := m.Import("example.com/mod/b")
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range b.Imports() {
		if imp.Path() == "example.com/mod/c" && imp != pkgs["example.com/mod/c"].Types {
			t.Error("b's import of c is not the package LoadPackage checked")
		}
	}
}

// TestTypeErrorNamesPackage: a package that does not compile fails the
// listing of its module, and a corpus that does not type-check fails
// LoadDir; both errors name the package.
func TestTypeErrorNamesPackage(t *testing.T) {
	if _, err := List("testdata/bad", []string{"./..."}); err == nil || !strings.Contains(err.Error(), "example.com/bad/p") {
		t.Errorf("List: err = %v, want one naming example.com/bad/p", err)
	}
	if _, err := LoadDir("testdata/corpus", "corpus"); err == nil || !strings.Contains(err.Error(), "type-checking corpus") {
		t.Errorf("LoadDir: err = %v, want one naming corpus", err)
	}
}
