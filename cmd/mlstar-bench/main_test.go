package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// runWith runs the command with args on a fresh flag set, as a process
// would.
func runWith(t *testing.T, args ...string) error {
	t.Helper()
	saved, savedFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = saved, savedFlags })
	flag.CommandLine = flag.NewFlagSet("mlstar-bench", flag.ContinueOnError)
	os.Args = append([]string{"mlstar-bench"}, args...)
	return run()
}

// TestBadNumericFlags: a value RunConfig would silently replace with its
// default is an error naming the flag, raised before any experiment runs.
func TestBadNumericFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "table1", "-scale", "0.5"}, "-scale 0.5"},
		{[]string{"-exp", "table1", "-scale", "0"}, "-scale 0"},
		{[]string{"-exp", "table1", "-scale", "NaN"}, "-scale NaN"},
		{[]string{"-exp", "table1", "-scale", "+Inf"}, "-scale +Inf"},
		{[]string{"-exp", "table1", "-evalcap", "-5"}, "-evalcap -5"},
		// flag.Parse stops at the first positional argument: every flag
		// after it would be dropped silently.
		{[]string{"stray", "-exp", "table1"}, `unexpected arguments ["stray" "-exp" "table1"]`},
	} {
		if err := runWith(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}

// TestListRunsWithGoodFlags: the checks pass the defaults and an explicit
// valid value.
func TestListRunsWithGoodFlags(t *testing.T) {
	for _, args := range [][]string{{"-list"}, {"-list", "-scale", "1", "-evalcap", "0"}} {
		if err := runWith(t, args...); err != nil {
			t.Errorf("%q: %v", args, err)
		}
	}
}
