package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mllibstar"
)

// runWith runs the command with args on a fresh flag set, as a process
// would.
func runWith(t *testing.T, args ...string) error {
	t.Helper()
	saved, savedFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = saved, savedFlags })
	flag.CommandLine = flag.NewFlagSet("mlstar-data", flag.ContinueOnError)
	os.Args = append([]string{"mlstar-data"}, args...)
	return run()
}

// TestBadArguments: a positional argument, which would stop flag parsing
// and drop every flag after it, an unknown preset and an -out file that
// cannot be created are errors naming what was wrong.
func TestBadArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"stray", "-preset", "avazu"}, `unexpected arguments ["stray" "-preset" "avazu"]`},
		{[]string{"-preset", "nope"}, `"nope"`},
		{[]string{"-preset", "avazu", "-scale", "20000", "-out", filepath.Join(t.TempDir(), "missing", "x.libsvm")}, "missing"},
	} {
		if err := runWith(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}

// TestWritesPresetAndTable: -out writes the preset's rows as libsvm text
// that reads back to the same dataset, and -table1 runs.
func TestWritesPresetAndTable(t *testing.T) {
	out := filepath.Join(t.TempDir(), "avazu.libsvm")
	if err := runWith(t, "-preset", "avazu", "-scale", "20000", "-out", out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := mllibstar.ReadLibSVM(f, "avazu")
	if err != nil {
		t.Fatal(err)
	}
	want, err := mllibstar.PresetDataset("avazu", 20000)
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := back.Stats(), want.Stats(); got.Instances != exp.Instances || got.NNZ != exp.NNZ {
		t.Errorf("read back %d rows, %d nonzeros; wrote %d, %d", got.Instances, got.NNZ, exp.Instances, exp.NNZ)
	}
	if err := runWith(t, "-table1", "-scale", "20000"); err != nil {
		t.Fatal(err)
	}
}
