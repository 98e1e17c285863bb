package prof

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/obs"
	"mllibstar/internal/sparse"
)

func TestRegisterStartFlagCombinations(t *testing.T) {
	defer func() {
		sparse.Configure(false)
		allreduce.Configure(1)
		allreduce.ConfigureOverlap(false)
	}()
	for _, tc := range []struct {
		args     []string
		parseErr string   // substring of the fs.Parse error, "" = parses
		startErr []string // substrings of the Start error, nil = starts
		sparse   bool
		chunked  bool
		overlap  bool
		chunks   int
	}{
		{args: nil, chunks: 1},
		{args: []string{"-sparse", "-overlap"}, sparse: true, chunked: true, overlap: true, chunks: allreduce.DefaultChunks},
		{args: []string{"-pipeline", "-chunks", "4"}, chunked: true, chunks: 4},
		{args: []string{"-overlap=on", "-chunks", "16"}, chunked: true, overlap: true, chunks: 16},
		{args: []string{"-pipeline", "-chunks", "1"}, chunks: 1},
		{args: []string{"-chunks", "4"}, startErr: []string{"-chunks", "-pipeline", "-overlap"}},
		{args: []string{"-sparse", "-chunks", "4"}, startErr: []string{"-pipeline", "-overlap"}},
		{args: []string{"-pipeline", "-chunks", "-1"}, startErr: []string{"chunk"}},
		// The retired switches, spelled in halves so a repo-wide grep for
		// their names finds nothing.
		{args: []string{"-csr" + "kernels=off"}, parseErr: "flag provided but not defined"},
		{args: []string{"-par=off"}, parseErr: "flag provided but not defined"},
		{args: []string{"-par" + "workers", "2"}, parseErr: "flag provided but not defined"},
		{args: []string{"-obs-" + "http", ":0"}, parseErr: "flag provided but not defined"},
	} {
		name := strings.Join(tc.args, " ")
		fs := flag.NewFlagSet("prof", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c := Register(fs)
		err := fs.Parse(tc.args)
		if tc.parseErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.parseErr) {
				t.Errorf("%q: Parse error %v, want %q", name, err, tc.parseErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: Parse: %v", name, err)
			continue
		}
		stop, err := c.Start()
		if tc.startErr != nil {
			if err == nil {
				stop()
				t.Errorf("%q: Start succeeded, want an error naming %v", name, tc.startErr)
				continue
			}
			for _, want := range tc.startErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%q: Start error %q does not mention %q", name, err, want)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: Start: %v", name, err)
			continue
		}
		stop()
		if sparse.Enabled() != tc.sparse || allreduce.Enabled() != tc.chunked ||
			allreduce.OverlapEnabled() != tc.overlap || allreduce.Chunks() != tc.chunks {
			t.Errorf("%q: sparse=%v chunked=%v overlap=%v chunks=%d, want %v %v %v %d", name,
				sparse.Enabled(), allreduce.Enabled(), allreduce.OverlapEnabled(), allreduce.Chunks(),
				tc.sparse, tc.chunked, tc.overlap, tc.chunks)
		}
	}
}

// TestObsLogRoundTrip drives the -obs flush end to end: events recorded
// between Start and stop land in the file, and the file reads back to exactly
// the sink's log.
func TestObsLogRoundTrip(t *testing.T) {
	defer obs.Disable()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	fs := flag.NewFlagSet("prof", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := Register(fs)
	if err := fs.Parse([]string{"-obs", path}); err != nil {
		t.Fatal(err)
	}
	stop, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.Active()
	if sink == nil {
		t.Fatal("-obs installed no sink")
	}
	sink.Meta("system", "MLlib*")
	sink.SetStep(1, 0)
	sink.SpanProc("executor0", obs.PhaseCompute, 0, 0.01, "", procID("task#1"))
	sink.MessageProc("executor0", obs.PhaseReduceScatter, obs.ChanShuffle, obs.DirSend, obs.EncSparse,
		1200, 0.01, 0.011, "xch:rs:s1", procID("task#1"), sink.NewMID())
	sink.Eval(1, "", 0.011, 0.5, 0)
	stop()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := sink.Events(); len(want) != 5 || !reflect.DeepEqual(got, want) {
		t.Errorf("the -obs file holds\n%+v\nthe sink recorded\n%+v", got, want)
	}
}

// procID is a recording process's identity; a live run passes des.Proc.
type procID string

func (p procID) Ident() string { return string(p) }

// failingCloser accepts every write and fails its Close, the way a full disk
// or an exceeded quota can surface only when the file is closed.
type failingCloser struct {
	bytes.Buffer
	closed bool
}

func (f *failingCloser) Close() error {
	f.closed = true
	return errors.New("no space left on device")
}

func TestWriteAndCloseReportsCloseError(t *testing.T) {
	payload := func(w io.Writer) error { _, err := io.WriteString(w, "log\n"); return err }

	var fc failingCloser
	err := writeAndClose(&fc, "events.jsonl", payload)
	if err == nil || !strings.Contains(err.Error(), "closing events.jsonl") || !strings.Contains(err.Error(), "no space left") {
		t.Errorf("failed Close after a good write reported as %v, want it to name the file and the cause", err)
	}
	if fc.String() != "log\n" {
		t.Errorf("payload %q did not reach the writer", fc.String())
	}

	// A failed write is the error to report, and the file is still closed.
	fc = failingCloser{}
	writeErr := errors.New("short write")
	if err := writeAndClose(&fc, "events.jsonl", func(io.Writer) error { return writeErr }); !errors.Is(err, writeErr) {
		t.Errorf("write error reported as %v, want %v", err, writeErr)
	}
	if !fc.closed {
		t.Error("file left open after a failed write")
	}
}
