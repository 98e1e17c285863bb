package main

import (
	"flag"
	"os"
	"regexp"
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
		{[]string{"-in", sampleLog, "stray", "-top", "-2"}, `unexpected arguments ["stray" "-top" "-2"]`},
	} {
		if err := runWith(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want one naming %q", tc.args, err, tc.want)
		}
	}
}

// TestServeIsNotAFlag: the log's reports are files and stdout, read after
// the run; there is no live dashboard, so -serve fails to parse.
func TestServeIsNotAFlag(t *testing.T) {
	if err := runWith(t, "-serve", ":0", "-in", sampleLog); err == nil {
		t.Error("-serve :0 ran without an error")
	}
	if flag.CommandLine.Lookup("serve") != nil {
		t.Error("-serve is still defined")
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

// TestMalformedLogIsAnError: a log that decodes but holds a record the
// reports cannot take fails with an error naming the record, where -curve
// and -metrics used to panic.
func TestMalformedLogIsAnError(t *testing.T) {
	raw, err := os.ReadFile(sampleLog)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var evals []int
	for i, l := range lines {
		if strings.Contains(l, `"phase":"eval"`) {
			evals = append(evals, i)
		}
	}
	swapped := append([]string(nil), lines...)
	swapped[evals[0]], swapped[evals[1]] = swapped[evals[1]], swapped[evals[0]]
	span := append([]string(nil), lines...)
	for i, l := range span {
		if strings.Contains(l, `"phase":"compute"`) {
			span[i] = regexp.MustCompile(`"end":[^,]*`).ReplaceAllString(l, `"end":-1`)
			break
		}
	}
	for _, tc := range []struct {
		name  string
		lines []string
		flag  string
		want  string
	}{
		{"eval order", swapped, "-curve", "eval at step"},
		{"negative span", span, "-metrics", "before it starts"},
	} {
		path := t.TempDir() + "/events.jsonl"
		if err := os.WriteFile(path, []byte(strings.Join(tc.lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		args := []string{"-in", path, tc.flag}
		if tc.flag == "-curve" {
			args = append(args, t.TempDir()+"/c.svg")
		}
		if err := runWith(t, args...); err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "record ") {
			t.Errorf("%s: err = %v, want one naming the record and %q", tc.name, err, tc.want)
		}
	}
}
