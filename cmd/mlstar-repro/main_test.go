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
	flag.CommandLine = flag.NewFlagSet("mlstar-repro", flag.ContinueOnError)
	os.Args = append([]string{"mlstar-repro"}, args...)
	return run()
}

// TestBadNumericFlags: a value RunConfig would silently replace with its
// default is an error naming the flag, raised before any experiment runs.
func TestBadNumericFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-quick", "-out", "", "-scale", "0.5"}, "-scale 0.5"},
		{[]string{"-quick", "-out", "", "-scale", "NaN"}, "-scale NaN"},
		{[]string{"-quick", "-out", "", "-scale", "-1"}, "-scale -1"},
		{[]string{"-quick", "stray", "-scale", "0.5"}, `unexpected arguments ["stray" "-scale" "0.5"]`},
	} {
		if err := runWith(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}
