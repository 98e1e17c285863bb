package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// sampleLog is a committed causal event log of a short MLlib* run.
const sampleLog = "../../internal/bench/testdata/obs_events_mllibstar.jsonl"

// runWith runs the command with args on a fresh flag set, as a process
// would.
func runWith(t *testing.T, args ...string) error {
	t.Helper()
	saved, savedFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = saved, savedFlags })
	flag.CommandLine = flag.NewFlagSet("mlstar-obs", flag.ContinueOnError)
	os.Args = append([]string{"mlstar-obs"}, args...)
	return run()
}

// TestBadFlags: a negative -top is an error naming the flag, raised before
// the log is read (it used to panic slicing the path segments).
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-in", sampleLog, "-critpath", "-top", "-2"}, "-top -2"},
		{[]string{"-critpath"}, "-in"},
	} {
		if err := runWith(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}

// TestCritpathRunsWithGoodFlags: the check passes the default and the
// smallest valid -top.
func TestCritpathRunsWithGoodFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-in", sampleLog, "-critpath"},
		{"-in", sampleLog, "-critpath", "-top", "0"},
	} {
		if err := runWith(t, args...); err != nil {
			t.Errorf("%q: %v", args, err)
		}
	}
}
