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
	flag.CommandLine = flag.NewFlagSet("mlstar-gantt", flag.ContinueOnError)
	os.Args = append([]string{"mlstar-gantt"}, args...)
	return run()
}

// TestBadFlags: a value the run would silently replace (Config's default
// step count, the chart's minimum width) is an error naming the flag,
// raised before anything trains.
func TestBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-steps", "0"}, "-steps 0"},
		{[]string{"-steps", "-3"}, "-steps -3"},
		{[]string{"-width", "0"}, "-width 0"},
		{[]string{"-width", "-5"}, "-width -5"},
		{[]string{"-width", "9"}, "-width 9"},
	} {
		if err := runWith(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}

// TestRunsWithSmallestGoodFlags: one traced step at the narrowest width
// trains and charts.
func TestRunsWithSmallestGoodFlags(t *testing.T) {
	if err := runWith(t, "-system", "MLlib*", "-steps", "1", "-width", "10", "-scale", "20000"); err != nil {
		t.Fatal(err)
	}
}
