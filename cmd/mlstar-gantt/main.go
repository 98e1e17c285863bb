// Command mlstar-gantt reproduces Figure 3 of the paper: gantt charts of
// the cluster activity for MLlib, MLlib + model averaging, and MLlib*
// running SVM training on the kdd12-like workload with 8 executors.
//
// Usage:
//
//	mlstar-gantt                 # all three charts, ASCII
//	mlstar-gantt -system MLlib*  # one system
//	mlstar-gantt -csv out/       # also dump span CSVs for plotting
//	mlstar-gantt -svg out/       # also render SVG charts (labeled legend)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mllibstar"
	"mllibstar/internal/obs"
)

func main() {
	var (
		system = flag.String("system", "", "only this system (default: all three)")
		preset = flag.String("preset", "kdd12", "dataset preset")
		scale  = flag.Float64("scale", 5000, "preset downscale factor")
		steps  = flag.Int("steps", 4, "communication steps to trace")
		execs  = flag.Int("executors", 8, "number of executors")
		width  = flag.Int("width", 110, "chart width in characters")
		csvDir = flag.String("csv", "", "directory to write span CSVs into")
		svgDir = flag.String("svg", "", "directory to write SVG gantt charts into")
	)
	flag.Parse()

	ds, err := mllibstar.PresetDataset(*preset, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	systems := []mllibstar.System{mllibstar.MLlib, mllibstar.MLlibMA, mllibstar.MLlibStar}
	if *system != "" {
		systems = []mllibstar.System{mllibstar.System(*system)}
	}
	for _, sys := range systems {
		sink := mllibstar.NewTrace()
		eta := 0.3
		if sys == mllibstar.MLlib {
			eta = 12
		}
		res, err := mllibstar.Train(ds, mllibstar.Config{
			System: sys, Cluster: mllibstar.Cluster1(*execs),
			Eta: eta, Decay: true, BatchFraction: 0.1,
			MaxSteps: *steps, Trace: sink, Seed: 7,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s: %d steps in %.4f simulated s ---\n", sys, res.CommSteps, res.SimTime)
		gantt := obs.GanttFromEvents(sink.Events())
		fmt.Println(gantt.ASCII(*width))
		name := strings.NewReplacer("*", "star", "+", "_").Replace(string(sys))
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, fmt.Sprintf("gantt_%s.csv", name))
			if err := os.WriteFile(path, []byte(gantt.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
		if *svgDir != "" {
			if err := os.MkdirAll(*svgDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*svgDir, fmt.Sprintf("gantt_%s.svg", name))
			svg := gantt.SVG(fmt.Sprintf("%s · cluster activity", sys), 900)
			if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
}
