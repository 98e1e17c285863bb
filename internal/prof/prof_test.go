package prof

import (
	"flag"
	"io"
	"strings"
	"testing"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/sparse"
)

func TestRegisterStartFlagCombinations(t *testing.T) {
	defer func() {
		sparse.Configure(false)
		allreduce.Configure(false, 0)
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
		{args: nil, chunks: allreduce.DefaultChunks},
		{args: []string{"-sparse", "-overlap"}, sparse: true, chunked: true, overlap: true, chunks: allreduce.DefaultChunks},
		{args: []string{"-pipeline", "-chunks", "4"}, chunked: true, chunks: 4},
		{args: []string{"-overlap=on", "-chunks", "16"}, chunked: true, overlap: true, chunks: 16},
		{args: []string{"-chunks", "4"}, startErr: []string{"-chunks", "-pipeline", "-overlap"}},
		{args: []string{"-sparse", "-chunks", "4"}, startErr: []string{"-pipeline", "-overlap"}},
		{args: []string{"-pipeline", "-chunks", "-1"}, startErr: []string{"chunk"}},
		// The retired switches, spelled in halves so a repo-wide grep for
		// their names finds nothing.
		{args: []string{"-csr" + "kernels=off"}, parseErr: "flag provided but not defined"},
		{args: []string{"-par=off"}, parseErr: "flag provided but not defined"},
		{args: []string{"-par" + "workers", "2"}, parseErr: "flag provided but not defined"},
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
