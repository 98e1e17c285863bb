package mllibstar_test

// The docs suite keeps the prose honest: every intra-repo link in the
// top-level documents must resolve to a real file, and every command the
// docs tell the reader to type — `go run ./...` package paths, `make`
// targets, `mlstar-bench -exp` ids — must reference something that exists.
// It runs as part of `make docs` (and therefore `make check` and CI), so a
// renamed package, deleted target, or retired experiment id fails the build
// instead of rotting in the README.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mllibstar/internal/analysis"
	"mllibstar/internal/analysis/buflife"
	"mllibstar/internal/analysis/costcharge"
	"mllibstar/internal/analysis/determinism"
	"mllibstar/internal/analysis/detflow"
	"mllibstar/internal/analysis/errdiscard"
	"mllibstar/internal/analysis/floateq"
	"mllibstar/internal/analysis/pkgdoc"
	"mllibstar/internal/analysis/vecalias"
	"mllibstar/internal/bench"
)

// docFiles are the documents `make docs` guards. They all live at the repo
// root, so their relative links resolve against the test's working
// directory.
var docFiles = []string{"README.md", "ARCHITECTURE.md", "EXPERIMENTS.md", "DESIGN.md"}

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

// codeSnippets extracts the command-bearing text of a markdown document:
// every line inside a fenced code block plus every inline `code` span.
func codeSnippets(t *testing.T, doc string) []string {
	t.Helper()
	text, err := os.ReadFile(doc)
	if err != nil {
		t.Fatalf("reading %s: %v", doc, err)
	}
	inlineRe := regexp.MustCompile("`([^`\n]+)`")
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
		for _, m := range inlineRe.FindAllStringSubmatch(line, -1) {
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
// without telling readers what gate their code now has to pass fails here.
func TestDocsAnalyzers(t *testing.T) {
	suite := []*analysis.Analyzer{
		determinism.Analyzer, detflow.Analyzer,
		vecalias.Analyzer, buflife.Analyzer, costcharge.Analyzer,
		floateq.Analyzer, errdiscard.Analyzer, pkgdoc.Analyzer,
	}
	for _, doc := range []string{"README.md", "ARCHITECTURE.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		for _, a := range suite {
			if !strings.Contains(string(text), a.Name) {
				t.Errorf("%s: analyzer %q is in the lint suite but never mentioned", doc, a.Name)
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
