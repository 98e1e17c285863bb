package bench

import (
	"fmt"

	"mllibstar/internal/clusters"
	"mllibstar/internal/data"
	"mllibstar/internal/obs"
	"mllibstar/internal/train"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "ML workloads in Tencent Machine Learning Platform (survey)",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "table1",
		Title: "Dataset statistics (Table I), paper scale and reproduction scale",
		Run:   runTable1,
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Gantt charts: MLlib vs MLlib+MA vs MLlib* (kdd12, SVM, 8 executors)",
		Run:   runFig3,
	})
	register(Experiment{
		ID:    "bottleneck",
		Title: "B1/B2 quantification: per-node busy-time shares (kdd12, 8 executors)",
		Run:   runBottleneck,
	})
}

// runFig1 reproduces Figure 1, which is survey data, not an experiment: the
// share of ML workloads per system on Tencent's platform.
func runFig1(cfg RunConfig) (*Report, error) {
	r := &Report{ID: "fig1", Title: "ML workloads in Tencent Machine Learning Platform"}
	shares := []struct {
		system string
		pct    int
	}{
		{"Angel", 51}, {"XGBoost", 24}, {"TensorFlow", 22}, {"MLlib", 3},
	}
	csv := "system,share_pct\n"
	for _, s := range shares {
		r.addLine("%-12s %3d%%  %s", s.system, s.pct, bar(s.pct))
		csv += fmt.Sprintf("%s,%d\n", s.system, s.pct)
	}
	r.addLine("(static survey data from the paper's introduction; only 3%% of ML workloads use MLlib)")
	r.addFile("fig1_workloads.csv", csv)
	return r, nil
}

func bar(pct int) string {
	out := make([]byte, pct/2)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// runTable1 reproduces Table I: the paper-scale statistics as published and
// the statistics of the generated reproduction-scale datasets.
func runTable1(cfg RunConfig) (*Report, error) {
	r := &Report{ID: "table1", Title: "Dataset statistics"}
	r.addLine("paper scale:")
	csv := "dataset,scope,instances,features,avg_nnz,size_bytes\n"
	for _, name := range data.PresetNames() {
		st, err := data.PaperStats(name)
		if err != nil {
			return nil, err
		}
		r.addLine("  %s", st)
		csv += fmt.Sprintf("%s,paper,%d,%d,%.1f,%d\n", name, st.Instances, st.Features, st.AvgNNZ, st.SizeBytes)
	}
	r.addLine("reproduction scale (1/%g):", cfg.scale())
	for _, name := range data.PresetNames() {
		w, err := loadWorkload(name, cfg)
		if err != nil {
			return nil, err
		}
		st := w.ds.Stats()
		r.addLine("  %s", st)
		csv += fmt.Sprintf("%s,repro,%d,%d,%.1f,%d\n", name, st.Instances, st.Features, st.AvgNNZ, st.SizeBytes)
	}
	r.addFile("table1_datasets.csv", csv)
	return r, nil
}

// fig3Trace runs a few steps of the given system on the kdd12 preset and
// returns the run's gantt plus the result. The run records into a causal
// sink (obs.CausalSink) whatever the telemetry flags say, so the gantt CSV
// always carries each message's tag.
func fig3Trace(system string, cfg RunConfig) (obs.Gantt, *train.Result, error) {
	w, err := loadWorkload("kdd12", cfg)
	if err != nil {
		return obs.Gantt{}, nil, err
	}
	prm := tuned(system, w.ds.Name, 0)
	prm.MaxSteps = 4
	sink := obs.CausalSink()
	from := sink.Len()
	res, err := runSystem(system, clusters.Cluster1(8), w, prm, sink)
	return obs.GanttFromEvents(sink.Events()[from:]), res, err
}

// runFig3 renders the three gantt charts of Figure 3.
func runFig3(cfg RunConfig) (*Report, error) {
	r := &Report{ID: "fig3", Title: "Gantt charts for MGD executions (kdd12, SVM, 8 executors)"}
	for _, system := range []string{sysMLlib, sysMAvg, sysMLlibStar} {
		gantt, res, err := fig3Trace(system, cfg)
		if err != nil {
			return nil, err
		}
		r.addLine("--- %s (%d steps in %.3f simulated s) ---", system, res.CommSteps, res.SimTime)
		r.Lines = append(r.Lines, gantt.ASCII(100))
		r.addFile(fmt.Sprintf("fig3_%s_gantt.csv", safe(system)), gantt.CSV())
	}
	r.addLine("Expected shape: (a) MLlib — driver Update bars with executors idle between stages;")
	r.addLine("(b) +MA — same pattern, fewer steps needed; (c) MLlib* — executors busy nearly all the time.")
	return r, nil
}

// runBottleneck quantifies B1/B2 from the same traces: the share of wall
// time the driver spends communicating/updating, and mean executor
// utilization, per system.
func runBottleneck(cfg RunConfig) (*Report, error) {
	r := &Report{ID: "bottleneck", Title: "Driver bottleneck quantification (kdd12, 8 executors)"}
	csv := "system,driver_busy_share,mean_executor_utilization\n"
	for _, system := range []string{sysMLlib, sysMAvg, sysMLlibStar} {
		gantt, res, err := fig3Trace(system, cfg)
		if err != nil {
			return nil, err
		}
		driverShare := gantt.Busy("driver") / res.SimTime
		util := gantt.Utilization()
		execUtil, n := 0.0, 0
		for _, node := range gantt.Nodes() {
			if node != "driver" {
				execUtil += util[node]
				n++
			}
		}
		if n > 0 {
			execUtil /= float64(n)
		}
		r.addLine("%-9s driver busy %5.1f%% of run, mean executor utilization %5.1f%%",
			system, driverShare*100, execUtil*100)
		r.addMetric(safe(system)+"_driver_share", driverShare)
		r.addMetric(safe(system)+"_executor_util", execUtil)
		csv += fmt.Sprintf("%s,%.4f,%.4f\n", system, driverShare, execUtil)
	}
	r.addLine("Expected shape: driver share collapses and executor utilization rises from MLlib to MLlib*.")
	r.addFile("bottleneck.csv", csv)
	return r, nil
}

// safe converts a system name into a filename fragment.
func safe(system string) string {
	out := make([]rune, 0, len(system))
	for _, c := range system {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			out = append(out, c)
		case c == '*':
			out = append(out, 's', 't', 'a', 'r')
		case c == '+':
			out = append(out, '_')
		}
	}
	return string(out)
}
