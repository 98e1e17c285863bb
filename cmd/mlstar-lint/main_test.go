package main

import (
	"path/filepath"
	"testing"
)

// TestCrossPackageFacts runs the suite over a fixture module in which every
// finding of package a depends on a summary of package b: a helper that
// reaches obs, one that Puts its argument, and one that returns map-order
// data. The last three findings rest on b's helpers that get the same
// effects from package c, two package hops from a. Without the summaries
// crossing package boundaries, a would be clean.
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
		{"buflife", 17},
		{"determinism", 24},
		{"costcharge", 31},
		{"buflife", 37},
		{"determinism", 44},
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
