package mllibstar_test

// The docs suite keeps the prose honest: every intra-repo link in the
// top-level documents must resolve to a real file, and every command the
// docs tell the reader to type — `go run ./...` package paths, `make`
// targets, `mlstar-bench -exp` ids — must reference something that exists.
// It runs as part of `make docs` (and therefore `make check` and CI), so a
// renamed package, deleted target, or retired experiment id fails the build
// instead of rotting in the README.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mllibstar/internal/analysis/suite"
	"mllibstar/internal/bench"
)

// docFiles are the documents `make docs` guards. They all live at the repo
// root, so their relative links resolve against the test's working
// directory.
var docFiles = []string{"README.md", "ARCHITECTURE.md", "EXPERIMENTS.md", "DESIGN.md"}

// inlineCodeRe matches an inline code span on one line.
var inlineCodeRe = regexp.MustCompile("`([^`\n]+)`")

var linkRe = regexp.MustCompile(`\[[^\]\n]*\]\(([^)\s]+)\)`)

// TestDocsLinks verifies that every markdown link to a repo-local path
// points at an existing file or directory. External (http/https/mailto)
// links and pure in-page anchors are skipped.
func TestDocsLinks(t *testing.T) {
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(text), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s: broken intra-repo link %q: %v", doc, m[1], err)
			}
		}
	}
}

// docPathRe matches a repository path under internal/, cmd/ or examples/
// as the documents name it.
var docPathRe = regexp.MustCompile(`(?:internal|cmd|examples)/[A-Za-z0-9_\-]+(?:/[A-Za-z0-9_.\-]+)*`)

// TestDocsPackages verifies that every internal/, cmd/ or examples/ path the
// guarded documents name is a directory of the repository once its file
// name is stripped, so no document names a deleted or moved package. A path
// that ends in a glob (cmd/mlstar-*) names no one directory and is skipped.
func TestDocsPackages(t *testing.T) {
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		for _, loc := range docPathRe.FindAllStringIndex(string(text), -1) {
			m := string(text[loc[0]:loc[1]])
			if loc[1] < len(text) && text[loc[1]] == '*' {
				continue
			}
			dir := strings.TrimRight(m, ".") // a sentence's full stop
			for strings.Contains(path.Base(dir), ".") {
				dir = path.Dir(dir)
			}
			if fi, err := os.Stat(filepath.FromSlash(dir)); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, but %s is not a directory of the repository", doc, m, dir)
			}
		}
	}
}

// mapRowRe matches the path that opens a row of README.md's Architecture
// block, indented two spaces; its continuation lines are indented further.
var mapRowRe = regexp.MustCompile(`(?m)^  ([^ \n]+)`)

// TestDocsPackageMap holds README.md's Architecture block to the tree:
// every directory under internal/ and cmd/ opens one of its rows, and every
// path that opens a row exists.
func TestDocsPackageMap(t *testing.T) {
	text, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(text), "## Architecture\n\n```\n")
	if block, _, ok = strings.Cut(block, "```"); !ok {
		t.Fatal("README.md has no Architecture code block")
	}
	named := map[string]bool{}
	for _, m := range mapRowRe.FindAllStringSubmatch(block, -1) {
		named[m[1]] = true
		if _, err := os.Stat(filepath.FromSlash(m[1])); err != nil {
			t.Errorf("the Architecture block names %s: %v", m[1], err)
		}
	}
	for _, root := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if dir := root + "/" + e.Name(); e.IsDir() && !named[dir] {
				t.Errorf("the Architecture block does not name %s", dir)
			}
		}
	}
}

// identDocs are the documents whose backticked pkg.Ident mentions
// TestDocsIdentifiers checks.
var identDocs = append([]string{"internal/engine/README.md"}, docFiles...)

// identRe matches a qualified identifier inside a code span: a lower-case
// package name, a dot and an upper-case identifier, not preceded by another
// selector or a path.
var identRe = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)`)

// moduleExports maps every package name of this module (its package
// clause; main packages and testdata excluded) to the exported names its
// non-test files declare at top level — functions, methods, types,
// variables and constants — read with go/parser. Two directories with one
// package name pool their names.
func moduleExports(t *testing.T) map[string]map[string]bool {
	t.Helper()
	exports := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || p != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		names := exports[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			exports[f.Name.Name] = names
		}
		add := func(id *ast.Ident) {
			if id.IsExported() {
				names[id.Name] = true
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				add(decl.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return exports
}

// TestDocsIdentifiers verifies that every backticked pkg.Ident the guarded
// documents write, where pkg is a package of this module, names an exported
// top-level identifier of that package that still exists: a function,
// type, variable or constant, or a method, which the docs write as
// `pkg.Method` too (`des.Spawn`, `prof.Start`). A field or a method after
// its type is checked through the type (`engine.Context.RunStage` needs
// `engine.Context`).
func TestDocsIdentifiers(t *testing.T) {
	exports := moduleExports(t)
	for _, doc := range identDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		for _, span := range inlineCodeRe.FindAllStringSubmatch(string(text), -1) {
			for _, m := range identRe.FindAllStringSubmatch(span[1], -1) {
				if names, ok := exports[m[1]]; ok && !names[m[2]] {
					t.Errorf("%s: `%s` names %s.%s, which package %s does not export", doc, span[1], m[1], m[2], m[1])
				}
			}
		}
	}
}

// codeSnippets extracts the command-bearing text of a markdown document:
// every line inside a fenced code block plus every inline `code` span.
func codeSnippets(t *testing.T, doc string) []string {
	t.Helper()
	text, err := os.ReadFile(doc)
	if err != nil {
		t.Fatalf("reading %s: %v", doc, err)
	}
	var out []string
	inFence := false
	for _, line := range strings.Split(string(text), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			out = append(out, line)
			continue
		}
		for _, m := range inlineCodeRe.FindAllStringSubmatch(line, -1) {
			out = append(out, m[1])
		}
	}
	if inFence {
		t.Errorf("%s: unclosed code fence", doc)
	}
	return out
}

// makeTargets parses the Makefile's rule names.
func makeTargets(t *testing.T) map[string]bool {
	t.Helper()
	text, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatalf("reading Makefile: %v", err)
	}
	targets := map[string]bool{}
	ruleRe := regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+):`)
	for _, m := range ruleRe.FindAllStringSubmatch(string(text), -1) {
		targets[m[1]] = true
	}
	return targets
}

// TestDocsAnalyzers verifies that README.md and ARCHITECTURE.md document
// every analyzer in the mlstar-lint suite by name — adding an analyzer
// without telling readers what gate their code now has to pass fails here —
// and name no retired one as if it still ran: a retired analyzer may be
// mentioned in prose, not as a `name` in backticks.
func TestDocsAnalyzers(t *testing.T) {
	retired := []string{"buflife", "vecalias", "detflow", "costcharge"}
	for _, doc := range []string{"README.md", "ARCHITECTURE.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		for _, a := range suite.Analyzers {
			if !strings.Contains(string(text), a.Name) {
				t.Errorf("%s: analyzer %q is in the lint suite but never mentioned", doc, a.Name)
			}
		}
		for _, name := range retired {
			if strings.Contains(string(text), "`"+name+"`") {
				t.Errorf("%s: names the retired analyzer `%s` as if it ran", doc, name)
			}
		}
	}
}

// sourceFlags parses every flag definition in the CLIs (cmd/*), the
// repository benchmark (benchmark/main.go) and the shared engine flags
// (internal/prof), returning the set of flag names a binary in this
// repository actually accepts.
func sourceFlags(t *testing.T) map[string]bool {
	t.Helper()
	defRe := regexp.MustCompile(`\.(?:String|Int64|Int|Float64|Bool|Duration)\("([a-z][a-z0-9-]*)"`)
	varRe := regexp.MustCompile(`\.Var\([^,]+,\s*"([a-z][a-z0-9-]*)"`)
	files, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "benchmark/main.go", "internal/prof/prof.go")
	flags := map[string]bool{}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("reading %s: %v", f, err)
		}
		for _, m := range defRe.FindAllStringSubmatch(string(text), -1) {
			flags[m[1]] = true
		}
		for _, m := range varRe.FindAllStringSubmatch(string(text), -1) {
			flags[m[1]] = true
		}
	}
	if len(flags) == 0 {
		t.Fatal("sourceFlags found no flag definitions — parsing regexes broken?")
	}
	return flags
}

// goToolFlags are flags of the go toolchain itself (and the repo's test
// binaries) that dev commands in the docs legitimately quote.
var goToolFlags = map[string]bool{
	"bench": true, "benchmem": true, "benchtime": true, "run": true,
	"race": true, "fuzz": true, "fuzztime": true, "update": true,
	"count": true, "v": true,
}

// TestDocsFlags verifies that every `-flag` the docs quote — in fenced
// code blocks, inline code spans, and the flag tables — exists in some
// CLI's flag set. A renamed or removed flag fails here instead of
// surviving as stale documentation.
func TestDocsFlags(t *testing.T) {
	known := sourceFlags(t)
	flagRe := regexp.MustCompile(`(?:^|[^\w-])-([a-z][a-z0-9-]*)`)
	for _, doc := range docFiles {
		for _, snippet := range codeSnippets(t, doc) {
			if i := strings.Index(snippet, "#"); i >= 0 {
				snippet = snippet[:i]
			}
			for _, m := range flagRe.FindAllStringSubmatch(snippet, -1) {
				name := m[1]
				if known[name] || goToolFlags[name] {
					continue
				}
				t.Errorf("%s: flag -%s is quoted but no CLI defines it", doc, name)
			}
		}
	}
}

// TestDocsCommands verifies the commands quoted in the docs:
//
//   - `go run ./<path>` must name a directory that exists,
//   - `make <target>` must name a rule in the Makefile (`VAR=value`
//     arguments are skipped),
//   - `-exp <id>` must name a registered experiment (globs, brace
//     expansions, and `<id>` placeholders are skipped).
func TestDocsCommands(t *testing.T) {
	targets := makeTargets(t)
	exps := map[string]bool{}
	for _, e := range bench.All() {
		exps[e.ID] = true
	}
	for _, doc := range docFiles {
		for _, snippet := range codeSnippets(t, doc) {
			for _, cmd := range strings.Split(snippet, "&&") {
				if i := strings.Index(cmd, "#"); i >= 0 {
					cmd = cmd[:i]
				}
				fields := strings.Fields(strings.TrimPrefix(strings.TrimSpace(cmd), "$ "))
				if len(fields) == 0 {
					continue
				}
				switch {
				case fields[0] == "go" && len(fields) >= 3 && fields[1] == "run":
					for _, f := range fields[2:] {
						if !strings.HasPrefix(f, "./") {
							continue
						}
						if st, err := os.Stat(filepath.FromSlash(f)); err != nil || !st.IsDir() {
							t.Errorf("%s: `go run %s`: no such package directory", doc, f)
						}
						break
					}
				case fields[0] == "make":
					for _, f := range fields[1:] {
						if strings.HasPrefix(f, "-") || strings.Contains(f, "=") {
							continue // make option or VAR=value
						}
						if !targets[f] {
							t.Errorf("%s: `make %s`: no such Makefile target", doc, f)
						}
					}
				}
				for i, f := range fields {
					if f != "-exp" || i+1 >= len(fields) {
						continue
					}
					id := fields[i+1]
					if strings.ContainsAny(id, "*{}<>") {
						continue // glob / brace expansion / placeholder
					}
					if !exps[id] {
						t.Errorf("%s: `-exp %s`: no such experiment id", doc, id)
					}
				}
			}
		}
	}
}

// TestDocsExperimentsNumbers holds every measured cell of EXPERIMENTS.md's
// Figure 4 and Figure 6 tables to the committed artifact it was read from:
// a Figure 4 panel's "S× / T×" to the speedup line of its section in
// results/transcript.txt (a panel MLlib misses, to the step budget it ran
// out of there), and a Figure 6 cell "X s (Y×)" to its row of
// results/fig6d_scalability.csv, at the precision the cell prints.
func TestDocsExperimentsNumbers(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// section returns the text from the line starting with head to the next
	// line starting with next.
	section := func(text, head, next string) string {
		i := strings.Index(text, "\n"+head)
		if i < 0 {
			t.Fatalf("no section %q", head)
		}
		text = text[i+1:]
		if j := strings.Index(text[len(head):], "\n"+next); j >= 0 {
			text = text[:len(head)+j]
		}
		return text
	}
	doc, transcript := read("EXPERIMENTS.md"), read("results/transcript.txt")

	fig4 := regexp.MustCompile(`(?m)^\| (4[a-h]) \|[^|\n]*\|[^|\n]*\| \**([^|\n]*?)\** \|`)
	speedup := regexp.MustCompile(`^(\d+)× / (\d+)×$`)
	missed := regexp.MustCompile(`^MLlib misses target after (\d+) steps$`)
	rows := fig4.FindAllStringSubmatch(section(doc, "## Figure 4", "## "), -1)
	if len(rows) != 8 {
		t.Fatalf("Figure 4 table: %d panel rows, want 8", len(rows))
	}
	for _, r := range rows {
		run := section(transcript, "== fig"+r[1]+":", "== ")
		var want string
		if m := speedup.FindStringSubmatch(r[2]); m != nil {
			want = "speedup of MLlib* over MLlib: " + m[1] + "x in comm steps, " + m[2] + "x in time"
		} else if m := missed.FindStringSubmatch(r[2]); m != nil {
			want = "MLlib    DID NOT reach target within " + m[1] + " steps"
		} else {
			t.Errorf("Figure 4 panel %s: unrecognised measured cell %q", r[1], r[2])
			continue
		}
		if !strings.Contains(run, want) {
			t.Errorf("Figure 4 panel %s reads %q; results/transcript.txt has no %q", r[1], r[2], want)
		}
	}

	measured := map[string][2]string{} // "system,machines" -> time, speedup
	for _, line := range strings.Split(read("results/fig6d_scalability.csv"), "\n")[1:] {
		if f := strings.Split(line, ","); len(f) == 4 {
			measured[f[0]+","+f[1]] = [2]string{f[2], f[3]}
		}
	}
	fig6 := regexp.MustCompile(`(?m)^\| (MLlib\*?|Angel) \| ([^|\n]*) \| ([^|\n]*) \| ([^|\n]*) \|`)
	cell := regexp.MustCompile(`^([\d.]+) s \(\**([\d.]+)×\**\)$`)
	// printed formats a CSV value to the decimals of the doc's number.
	printed := func(csv, doc string) string {
		v, err := strconv.ParseFloat(csv, 64)
		if err != nil {
			t.Fatalf("fig6d_scalability.csv: %v", err)
		}
		decimals := 0
		if i := strings.IndexByte(doc, '.'); i >= 0 {
			decimals = len(doc) - i - 1
		}
		return strconv.FormatFloat(v, 'f', decimals, 64)
	}
	rows = fig6.FindAllStringSubmatch(section(doc, "## Figure 6", "## "), -1)
	if len(rows) != 3 {
		t.Fatalf("Figure 6 table: %d system rows, want 3", len(rows))
	}
	for _, r := range rows {
		for i, machines := range []string{"32", "64", "128"} {
			m := cell.FindStringSubmatch(r[2+i])
			got, ok := measured[r[1]+","+machines]
			if m == nil || !ok {
				t.Errorf("Figure 6 %s at %s: cell %q, csv row found %v", r[1], machines, r[2+i], ok)
				continue
			}
			if printed(got[0], m[1]) != m[1] || printed(got[1], m[2]) != m[2] {
				t.Errorf("Figure 6 %s at %s reads %s s (%s×); fig6d_scalability.csv has %s s (%s×)",
					r[1], machines, m[1], m[2], got[0], got[1])
			}
		}
	}
}
