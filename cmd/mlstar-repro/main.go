// Command mlstar-repro regenerates the paper's entire evaluation in one
// shot: it runs every experiment, writes all CSVs and SVG figures into the
// output directory, and produces an index.html gallery plus a plain-text
// transcript — the full reproduction artifact.
//
// Usage:
//
//	mlstar-repro -out results/           # everything (about a minute)
//	mlstar-repro -out results/ -quick    # skip the WX/cluster2 experiments
//	mlstar-repro -out results/ -quick -trace trace.out
//	mlstar-repro -out results/ -sparse=on   # sparse model-delta exchange
package main

import (
	"flag"
	"fmt"
	"html"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mllibstar/internal/bench"
	"mllibstar/internal/obs"
	"mllibstar/internal/prof"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole command. It returns instead of exiting so that the
// deferred stop flushes the profiles and telemetry of a failed run too.
func run() error {
	var (
		out     = flag.String("out", "results", "output directory")
		scale   = flag.Float64("scale", bench.DefaultScale, "dataset downscale factor")
		quick   = flag.Bool("quick", false, "skip the slow WX scalability experiments (fig6*)")
		profCfg = prof.Register(flag.CommandLine)
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q: every option is a flag", flag.Args())
	}
	stopProf, err := profCfg.Start()
	if err != nil {
		return err
	}
	defer stopProf()

	// RunConfig would read a bad -scale as DefaultScale.
	if !(*scale >= 1) || math.IsInf(*scale, 1) {
		return fmt.Errorf("-scale %g must be a finite number ≥ 1", *scale)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	cfg := bench.RunConfig{Scale: *scale, Sink: obs.Active()}

	var transcript strings.Builder
	type entry struct {
		id, title string
		lines     []string
		files     []string
	}
	var entries []entry

	for _, e := range bench.All() {
		// The aggregate ids (fig4, fig5, fig6) duplicate their panels.
		if e.ID == "fig4" || e.ID == "fig5" || e.ID == "fig6" {
			continue
		}
		if *quick && strings.HasPrefix(e.ID, "fig6") {
			continue
		}
		start := time.Now()
		report, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		fmt.Printf("%-22s done in %s\n", e.ID, elapsed)
		transcript.WriteString(report.Text())
		transcript.WriteByte('\n')

		var files []string
		names := make([]string, 0, len(report.Files))
		for name := range report.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			path := filepath.Join(*out, name)
			if err := os.WriteFile(path, []byte(report.Files[name]), 0o644); err != nil {
				return err
			}
			files = append(files, name)
		}
		entries = append(entries, entry{id: report.ID, title: report.Title, lines: report.Lines, files: files})
	}

	if err := os.WriteFile(filepath.Join(*out, "transcript.txt"), []byte(transcript.String()), 0o644); err != nil {
		return err
	}

	// The gallery: every experiment's output, figures inlined.
	var page strings.Builder
	page.WriteString(`<!doctype html><meta charset="utf-8">
<title>MLlib* reproduction</title>
<style>
  body { font: 15px/1.5 system-ui, sans-serif; color: #0b0b0b; background: #fcfcfb;
         max-width: 960px; margin: 2rem auto; padding: 0 1rem; }
  h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2.2rem; }
  pre { background: #f3f2ef; padding: .8rem 1rem; overflow-x: auto; font-size: 13px; }
  img { max-width: 100%; border: 1px solid #e4e3df; margin: .4rem 0; }
  .meta { color: #52514e; font-size: 13px; }
  a { color: #2a78d6; }
</style>
<h1>MLlib*: Fast Training of GLMs — reproduction artifacts</h1>
<p class="meta">Generated by <code>mlstar-repro</code>. Every table and figure of the
ICDE 2019 paper, plus ablations and extensions, regenerated on the simulated
cluster. CSV files are the table view of each figure.</p>
`)
	for _, en := range entries {
		// No wall-clock label: the gallery is byte-stable across regenerations.
		fmt.Fprintf(&page, "<h2 id=%q>%s — %s</h2>\n", en.id, html.EscapeString(en.id), html.EscapeString(en.title))
		fmt.Fprintf(&page, "<pre>%s</pre>\n", html.EscapeString(strings.Join(en.lines, "\n")))
		for _, f := range en.files {
			if strings.HasSuffix(f, ".svg") {
				fmt.Fprintf(&page, "<img src=%q alt=%q>\n", f, html.EscapeString(en.title))
			} else {
				fmt.Fprintf(&page, "<p class=\"meta\">data: <a href=%q>%s</a></p>\n", f, html.EscapeString(f))
			}
		}
	}
	if err := os.WriteFile(filepath.Join(*out, "index.html"), []byte(page.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s/index.html (%d experiments)\n", *out, len(entries))
	return nil
}
