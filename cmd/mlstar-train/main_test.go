package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mllibstar"
	"mllibstar/internal/obs"
)

// TestBuiltBinary drives the compiled command: exit status, deferred flushes
// and the flag help are only observable on the real binary.
func TestBuiltBinary(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "mlstar-train")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// A run rejected after prof.Start (here by Params.Validate, on a negative
	// -target) exits 1 with the message on stderr and still writes its -obs
	// log — the run whose log you want.
	t.Run("failed run still flushes telemetry", func(t *testing.T) {
		log := filepath.Join(t.TempDir(), "events.jsonl")
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-obs", log, "-scale", "20000", "-steps", "2", "-target", "-1")
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("exit = %v, want status 1; stderr:\n%s", err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "TargetObjective") {
			t.Errorf("stderr %q does not carry the validation message", stderr.String())
		}
		f, err := os.Open(log)
		if err != nil {
			t.Fatalf("the failed run left no event log: %v", err)
		}
		defer f.Close()
		if _, err := obs.ReadJSONL(f); err != nil {
			t.Errorf("event log of the failed run does not re-read: %v", err)
		}
	})

	// The collective switches are an error on a trainer without the
	// collective, and accepted on one with it. One chunk is the unchunked
	// schedule — the configuration no flag at all gives — so -pipeline
	// -chunks 1 configures nothing and is accepted everywhere.
	t.Run("collective flags need a collective", func(t *testing.T) {
		for _, args := range [][]string{
			{"-system", "Petuum*", "-overlap", "-chunks", "2"},
			{"-system", "MLlib", "-pipeline", "-chunks", "2"},
			{"-system", "Angel", "-overlap", "-chunks", "1"},
		} {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, append(args, "-scale", "20000", "-steps", "2")...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("%q: exit = %v, want status 1; stderr:\n%s", args, err, stderr.String())
			}
			if msg := stderr.String(); !strings.Contains(msg, args[2]) || !strings.Contains(msg, args[1]+" does not use") {
				t.Errorf("%q: stderr %q does not name the flag and the system", args, msg)
			}
		}
		for _, args := range [][]string{
			{"-system", "MLlib*", "-pipeline", "-chunks", "2"},
			{"-system", "Petuum*", "-pipeline", "-chunks", "1"},
		} {
			if out, err := exec.Command(bin, append(args, "-scale", "20000", "-steps", "2")...).CombinedOutput(); err != nil {
				t.Fatalf("%q: %v\n%s", args, err, out)
			}
		}
	})

	// -gantt draws from the run's sink, which is the installed one under
	// -obs: the chart is printed and the log still records the run.
	t.Run("gantt with obs writes both", func(t *testing.T) {
		log := filepath.Join(t.TempDir(), "events.jsonl")
		out, err := exec.Command(bin, "-gantt", "-obs", log, "-scale", "20000", "-steps", "2").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		f, err := os.Open(log)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		events, err := obs.ReadJSONL(f)
		if err != nil {
			t.Fatal(err)
		}
		gantt := obs.GanttFromEvents(events)
		if len(gantt.Spans) == 0 {
			t.Fatalf("the -obs log holds %d events and no gantt span", len(events))
		}
		if !strings.Contains(string(out), gantt.ASCII(110)) {
			t.Errorf("the printed gantt is not the logged run's:\n%s", out)
		}
	})

	t.Run("system usage lists every system", func(t *testing.T) {
		help, err := exec.Command(bin, "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("-h: %v\n%s", err, help)
		}
		for _, sys := range mllibstar.Systems() {
			if !strings.Contains(string(help), string(sys)) {
				t.Errorf("-h output does not name %q:\n%s", sys, help)
			}
		}
	})
}
