// Package analysistest runs an analyzer over a testdata source corpus and
// checks its diagnostics against expectations written in the corpus itself,
// mirroring golang.org/x/tools/go/analysis/analysistest: a line that should
// be flagged carries a trailing comment of the form
//
//	// want "regexp"
//	// want "first" "second"
//
// where each quoted regular expression must match exactly one diagnostic
// reported on that line, and every diagnostic must be matched by some
// expectation.
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mllibstar/internal/analysis"
	"mllibstar/internal/analysis/loader"
)

// Run loads the package under dir (testdata/src/<pkg>), applies the
// analyzer, and reports any mismatch between produced diagnostics and the
// corpus's want comments as test errors.
//
// Like the real driver, Run honors //mlstar:nolint directives: a suppressed
// diagnostic is dropped before matching, so corpora can assert that a
// correctly scoped directive silences a finding (a line carrying both a
// directive for the analyzer and no want comment).
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkg, err := loader.LoadDir(dir, filepath.Base(dir))
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	wants, err := collectWants(pkg)
	if err != nil {
		t.Fatal(err)
	}

	// Group the diagnostics that survive suppression by file:line.
	supp := analysis.NewSuppressor()
	supp.AddPackage(pkg.Fset, pkg.Files)
	got := map[lineKey][]string{}
	pass := analysis.NewPass([]*loader.Package{pkg}).For(a, func(d analysis.Diagnostic) {
		pos := pkg.Fset.Position(d.Pos)
		if !supp.Suppressed(pos.Filename, pos.Line, a.Name) {
			k := lineKey{file: filepath.Base(pos.Filename), line: pos.Line}
			got[k] = append(got[k], d.Message)
		}
	})
	if err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}

	for k, exps := range wants {
		msgs := got[k]
		for _, exp := range exps {
			i := indexMatching(msgs, exp)
			if i < 0 {
				t.Errorf("%s:%d: no diagnostic matching %q (got %v)", k.file, k.line, exp.String(), msgs)
				continue
			}
			msgs = append(msgs[:i], msgs[i+1:]...)
		}
		for _, m := range msgs {
			t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, m)
		}
		delete(got, k)
	}
	// Diagnostics on lines with no want comment at all.
	keys := make([]lineKey, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, m := range got[k] {
			t.Errorf("%s:%d: unexpected diagnostic: %s", k.file, k.line, m)
		}
	}
}

type lineKey struct {
	file string
	line int
}

// collectWants extracts the want expectations from every comment in the
// package, keyed by the comment's file and line.
func collectWants(pkg *loader.Package) (map[lineKey][]*regexp.Regexp, error) {
	wants := map[lineKey][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := lineKey{file: filepath.Base(pos.Filename), line: pos.Line}
				exps, err := parseWant(strings.TrimPrefix(text, "want "))
				if err != nil {
					return nil, fmt.Errorf("%s: %v", position(pkg.Fset, c.Pos()), err)
				}
				wants[k] = append(wants[k], exps...)
			}
		}
	}
	return wants, nil
}

// parseWant parses a sequence of quoted regular expressions.
func parseWant(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out, nil
		}
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("want: expected quoted regexp, have %q", s)
		}
		prefix, rest, err := splitQuoted(s)
		if err != nil {
			return nil, err
		}
		rx, err := regexp.Compile(prefix)
		if err != nil {
			return nil, fmt.Errorf("want: %v", err)
		}
		out = append(out, rx)
		s = rest
	}
}

// splitQuoted unquotes the leading Go string literal of s and returns its
// value plus the remainder.
func splitQuoted(s string) (string, string, error) {
	quote := s[0]
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' && quote == '"' {
			i++
			continue
		}
		if s[i] == quote {
			val, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return "", "", fmt.Errorf("want: %v", err)
			}
			return val, s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("want: unterminated string in %q", s)
}

func indexMatching(msgs []string, rx *regexp.Regexp) int {
	for i, m := range msgs {
		if rx.MatchString(m) {
			return i
		}
	}
	return -1
}

func position(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
