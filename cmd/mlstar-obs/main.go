// Command mlstar-obs replays a superstep event log (the JSONL written by
// internal/obs, e.g. via the -obs flag of mlstar-bench/mlstar-repro) and
// renders it offline:
//
//   - the bottleneck attribution report (default, text; -json for the
//     machine-readable form), which classifies each run's dominant cost as
//     driver-bound (the paper's B1/B2 bottlenecks), network-bound, or
//     compute-bound;
//   - the deterministic metrics registry rebuilt from the events, in
//     Prometheus text exposition (-metrics);
//   - the repo's standard SVG views regenerated from the log alone:
//     convergence curve (-curve) and Figure-3 gantt chart (-gantt);
//   - the message-level critical-path report (-critpath) and the what-if
//     re-timing table (-whatif), both computed by internal/causal from the
//     causal fields every live sink records.
//
// Usage:
//
//	mlstar-obs -in events.jsonl                 # attribution report
//	mlstar-obs -in events.jsonl -json           # ... as JSON
//	mlstar-obs -in events.jsonl -metrics        # /metrics exposition
//	mlstar-obs -in events.jsonl -gantt f3.svg   # gantt SVG from the log
//	mlstar-obs -in events.jsonl -curve c.svg    # convergence SVG
//	mlstar-obs -in events.jsonl -critpath       # critical-path report
//	mlstar-obs -in events.jsonl -whatif         # what-if re-timing table
//
// Everything is derived from the event log, so two runs that produced
// byte-identical logs produce byte-identical reports — the golden-file
// tests in internal/bench rely on exactly that.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"mllibstar/internal/causal"
	"mllibstar/internal/metrics"
	"mllibstar/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mlstar-obs:", err)
		os.Exit(1)
	}
}

// run is the whole command, returning its error instead of exiting.
func run() error {
	var (
		in      = flag.String("in", "", "input event log (JSONL); required")
		asJSON  = flag.Bool("json", false, "emit the attribution report as JSON instead of text")
		metText = flag.Bool("metrics", false, "emit the rebuilt metrics registry in Prometheus text format")
		gantt   = flag.String("gantt", "", "write a Figure-3 gantt SVG regenerated from the log to this path")
		curve   = flag.String("curve", "", "write a convergence-curve SVG regenerated from the log to this path")
		crit    = flag.Bool("critpath", false, "emit the critical-path report (from the log's causal fields; a log recorded by an older build or another tool may lack them)")
		whatif  = flag.Bool("whatif", false, "emit the what-if re-timing table (from the log's causal fields; a log recorded by an older build or another tool may lack them)")
		topN    = flag.Int("top", 20, "number of path segments in the -critpath report")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q: every option is a flag", flag.Args())
	}
	if *in == "" {
		flag.Usage()
		return fmt.Errorf("-in events.jsonl is required")
	}
	if *topN < 0 {
		return fmt.Errorf("-top %d must be >= 0", *topN)
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	events, err := obs.ReadJSONL(f)
	_ = f.Close()
	if err != nil {
		return fmt.Errorf("reading %s: %v", *in, err)
	}
	if len(events) == 0 {
		return fmt.Errorf("%s: no events", *in)
	}
	if err := obs.CheckLog(events); err != nil {
		return fmt.Errorf("%s: %v", *in, err)
	}

	if *gantt != "" {
		svg := obs.GanttFromEvents(events).SVG("per-node activity, virtual time", 1100)
		if err := os.WriteFile(*gantt, []byte(svg), 0o644); err != nil {
			return err
		}
	}
	if *curve != "" {
		c := obs.CurveFromEvents(events)
		svg := metrics.RenderSVG([]*metrics.Curve{c}, metrics.SVGOptions{
			Title: "objective vs simulated time", LogX: true,
		})
		if err := os.WriteFile(*curve, []byte(svg), 0o644); err != nil {
			return err
		}
	}

	switch {
	case *crit || *whatif:
		g, err := causal.Analyze(events)
		if err != nil {
			return fmt.Errorf("building causal graph: %v (a log recorded by an older build or another tool lacks the causal fields; record it again with -obs)", err)
		}
		if *crit {
			fmt.Print(causal.CriticalPath(g).Text(*topN))
		}
		if *whatif {
			fmt.Print(causal.WhatIfText(g, causal.WhatIf(g, causal.StandardScenarios(g))))
		}
	case *metText:
		return obs.SinkFromEvents(events).Registry().WriteText(os.Stdout)
	case *asJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(obs.Attribute(events))
	default:
		fmt.Print(obs.Attribute(events).Text())
	}
	return nil
}
