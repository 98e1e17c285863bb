// Command mlstar-bench regenerates the tables and figures of the MLlib*
// paper on the simulated cluster.
//
// Usage:
//
//	mlstar-bench -list
//	mlstar-bench -exp fig4h
//	mlstar-bench -exp all -scale 2000 -out results/
//	mlstar-bench -exp fig4h -cpuprofile cpu.pprof
//	mlstar-bench -exp fig4a -sparse=on      # sparse model-delta exchange
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mllibstar/internal/bench"
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
		list    = flag.Bool("list", false, "list available experiments and exit")
		exp     = flag.String("exp", "", "experiment id to run, or \"all\"")
		scale   = flag.Float64("scale", bench.DefaultScale, "dataset downscale factor (1 = paper scale; smaller = bigger datasets)")
		grid    = flag.Bool("grid", false, "grid-search the learning rate instead of tuned defaults")
		out     = flag.String("out", "", "directory to write CSV outputs into (optional)")
		evalCap = flag.Int("evalcap", 0, "evaluation subsample cap (0 = default)")
		profCfg = prof.Register(flag.CommandLine)
	)
	flag.Parse()
	stopProf, err := profCfg.Start()
	if err != nil {
		return err
	}
	defer stopProf()

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-22s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun one with: mlstar-bench -exp <id>")
		}
		return nil
	}

	cfg := bench.RunConfig{Scale: *scale, Grid: *grid, EvalCap: *evalCap}
	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.All()
	} else {
		e, err := bench.ByID(*exp)
		if err != nil {
			return err
		}
		exps = []bench.Experiment{e}
	}

	for _, e := range exps {
		start := time.Now()
		report, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Print(report.Text())
		fmt.Printf("(%s finished in %s wall time)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			for name, contents := range report.Files {
				path := filepath.Join(*out, name)
				if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", path)
			}
		}
	}
	return nil
}
