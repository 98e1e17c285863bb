// Command benchmark is the repository's benchmark: four fixed-work training
// workloads measured on two clocks (host seconds of the simulator, simulated
// seconds of the modelled cluster), with per-layer unit costs measured from
// outside the program by a separate traced run.
//
// Usage:
//
//	go run ./benchmark -workload compute8 -seed 1            # end-to-end metrics
//	go run ./benchmark -workload compute8 -seed 1 -trace 1   # per-layer metrics and the budget table
//	go run ./benchmark -json all.json                        # all four workloads, one process each
//	go run ./benchmark -compare a.json b.json                # verdict per workload and metric
//	go run ./benchmark -selfcheck                            # the full set twice; derives the noise table
//
// The last line of standard output of a single-workload run is one JSON
// object with the keys correct, attempted, failed and metrics. README.md
// explains every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: compute8, scale128, ps8, wide8 (empty = all four, one process each)")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs and of every training run")
		seconds   = flag.Float64("seconds", 0, "measure for about this many seconds (0 = the workload's fixed repetition count)")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and the budget table in place of the end-to-end metrics")
		traceOut  = flag.String("trace-out", "", "write the traced run's spans to this file as JSON")
		jsonOut   = flag.String("json", "", "write the full results (medians, quartiles, samples) to this file")
		smoke     = flag.Bool("smoke", false, "test size: inputs ÷20, steps ÷5, two repetitions")
		compare   = flag.Bool("compare", false, "compare two -json files given as arguments: benchmark -compare a.json b.json")
		selfcheck = flag.Bool("selfcheck", false, "run the full set twice in alternating order and fail if a gated metric differs beyond its bound")
	)
	flag.Parse()
	opt := options{seed: *seed, seconds: *seconds, traced: *trace != 0, smoke: *smoke, traceOut: *traceOut}

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare wants two files, got %d", flag.NArg())
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = selfCheck(opt)
	case *name == "":
		var all []*result
		all, err = runAll(opt, false)
		if err == nil && *jsonOut != "" {
			err = writeResults(*jsonOut, all)
		}
		if err == nil {
			for _, res := range all {
				if res.Failed > 0 {
					err = fmt.Errorf("%s: %d of %d checks failed", res.Workload, res.Failed, res.Attempted)
				}
			}
		}
	default:
		err = runOne(*name, opt, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints its metrics by
// name, then the one-line JSON summary.
func runOne(name string, opt options, jsonOut string) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runWorkload(w, opt)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	if jsonOut != "" {
		if err := writeResults(jsonOut, []*result{res}); err != nil {
			return err
		}
	}
	if err := printSummary(res); err != nil {
		return err
	}
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d checks failed", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

// runAll runs every workload in a process of its own, so that the engine
// switches are set once per process and no workload inherits another's heap.
// Children write their results to files in a scratch directory that is
// removed before returning.
func runAll(opt options, reverse bool) ([]*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	dir, err := os.MkdirTemp("", "mlstar-benchmark-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	order := append([]workload(nil), workloads...)
	if reverse {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	var all []*result
	for _, w := range order {
		out := dir + "/" + w.name + ".json"
		args := []string{
			"-workload", w.name,
			"-seed", strconv.FormatInt(opt.seed, 10),
			"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
			"-json", out,
		}
		if opt.traced {
			args = append(args, "-trace", "1")
		}
		if opt.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		// A child that fails a check still writes its results and exits
		// non-zero; the caller decides what a failed check means.
		runErr := cmd.Run()
		rs, err := readResults(out)
		if err != nil {
			if runErr != nil {
				return nil, fmt.Errorf("%s: %w", w.name, runErr)
			}
			return nil, err
		}
		all = append(all, rs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return workloadIndex(all[i].Workload) < workloadIndex(all[j].Workload) })
	return all, nil
}

func workloadIndex(name string) int {
	for i := range workloads {
		if workloads[i].name == name {
			return i
		}
	}
	return len(workloads)
}

func writeResults(path string, rs []*result) error {
	blob, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readResults(path string) ([]*result, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(blob, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// metricOrder lists the names a result of this kind prints, in declared
// order.
func metricOrder(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric by name with its unit, one per line.
func printResult(out io.Writer, res *result) {
	fmt.Fprintf(out, "workload %s seed %d gomaxprocs %d reps %d inputs_fnv64 %s weights_fnv64 %s\n",
		res.Workload, res.Seed, res.GOMAXPROCS, res.Reps, res.Inputs, res.Weights)
	for _, def := range metricOrder(res.Traced) {
		v := res.Metrics[def.name]
		if def.exact || v.N <= 1 {
			fmt.Fprintf(out, "  %-34s %14.6g %-8s\n", def.name, v.Value, v.Unit)
			continue
		}
		fmt.Fprintf(out, "  %-34s %14.6g %-8s  q1 %.6g  q3 %.6g  n %d\n", def.name, v.Value, v.Unit, v.Q1, v.Q3, v.N)
	}
	if len(res.Budget) > 0 {
		fmt.Fprint(out, budgetText(res))
	}
	for _, f := range res.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
}

// printSummary prints the one-line JSON object the driver reads.
func printSummary(res *result) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, def := range metricOrder(res.Traced) {
		v := res.Metrics[def.name]
		metrics[def.name] = mv{Value: v.Value, Unit: v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return fmt.Errorf("encoding the summary: %w", err)
	}
	fmt.Println(string(line))
	return nil
}
