package bench

import (
	"fmt"

	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
)

func init() {
	register(Experiment{
		ID:    "ext-torrent",
		Title: "Extension: TorrentBroadcast for MLlib — how much of B2 is the broadcast half?",
		Run:   runExtTorrent,
	})
	register(Experiment{
		ID:    "ext-speculation",
		Title: "Extension: speculative execution against stragglers (spark.speculation)",
		Run:   runExtSpeculation,
	})
	register(Experiment{
		ID:    "ext-bandwidth",
		Title: "Sensitivity: MLlib* per-step advantage vs network bandwidth",
		Run:   runExtBandwidth,
	})
}

// runExtTorrent decomposes bottleneck B2: the driver serializes both the
// model broadcast (outbound) and the aggregation (inbound). Switching
// MLlib's broadcast to Spark's torrent style fixes the outbound half only;
// the comparison against MLlib* shows how much of the win each half
// contributes.
func runExtTorrent(cfg RunConfig) (*Report, error) {
	bigger := cfg
	bigger.Scale = cfg.scale() / 5 // model-heavy regime, as in ablation-aggregators
	w, err := loadWorkload("kdd12", bigger)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ext-torrent", Title: "Naive vs torrent broadcast (MLlib), vs MLlib*"}
	csv := "variant,time_per_step_s,driver_sent_bytes\n"
	type variant struct {
		label   string
		system  string
		torrent bool
	}
	for _, v := range []variant{
		{"MLlib, naive broadcast", sysMLlib, false},
		{"MLlib, torrent broadcast", sysMLlib, true},
		{"MLlib* (AllReduce)", sysMLlibStar, false},
	} {
		prm := tuned(v.system, w.ds.Name, 0)
		prm.MaxSteps = 4
		prm.TorrentBroadcast = v.torrent
		_, cl, ctx := clusters.Cluster1(8).Build(cfg.Sink)
		parts := w.ds.Partition(8, 3)
		res, err := core.Train(v.system, ctx, parts, w.ds.Features, prm, w.eval, w.ds.Name)
		if err != nil {
			return nil, err
		}
		perStep := res.SimTime / float64(res.CommSteps)
		sent := cl.Net.Node("driver").BytesSent()
		r.addLine("%-26s %.4f s/step, driver sent %.1f MB", v.label, perStep, sent/1e6)
		r.addMetric(safeName(v.label)+"_s_per_step", perStep)
		csv += fmt.Sprintf("%s,%.6f,%.0f\n", safeName(v.label), perStep, sent)
	}
	r.addLine("Reading: torrent broadcast removes the outbound half of B2 and narrows the gap;")
	r.addLine("the remaining distance to MLlib* is the aggregation path plus per-stage overhead.")
	r.addFile("ext_torrent.csv", csv)
	return r, nil
}

// runExtBandwidth sweeps the cluster bandwidth and reports the per-step
// advantage of MLlib* over MLlib+MA (same #updates per step, different
// communication pattern): as bandwidth grows, communication stops being the
// bottleneck and the advantage decays toward the fixed-overhead floor —
// locating the regime where the paper's B2 matters.
func runExtBandwidth(cfg RunConfig) (*Report, error) {
	bigger := cfg
	bigger.Scale = cfg.scale() / 5
	w, err := loadWorkload("kdd12", bigger)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ext-bandwidth", Title: "MLlib* per-step advantage vs bandwidth"}
	csv := "bandwidth_gbps,ma_s_per_step,star_s_per_step,advantage\n"
	for _, gbps := range []float64{0.1, 1, 10, 100} {
		spec := clusters.Cluster1(8)
		spec.Bandwidth = gbps * 125e6
		perStep := map[string]float64{}
		for _, system := range []string{sysMAvg, sysMLlibStar} {
			prm := tuned(system, w.ds.Name, 0)
			prm.MaxSteps = 4
			res, err := runSystem(system, spec, w, prm, cfg.Sink)
			if err != nil {
				return nil, err
			}
			perStep[system] = res.SimTime / float64(res.CommSteps)
		}
		adv := perStep[sysMAvg] / perStep[sysMLlibStar]
		r.addLine("%6.1f Gbps: MLlib+MA %.4f s/step, MLlib* %.4f s/step — %.1fx advantage",
			gbps, perStep[sysMAvg], perStep[sysMLlibStar], adv)
		r.addMetric(fmt.Sprintf("advantage_%ggbps", gbps), adv)
		csv += fmt.Sprintf("%g,%.6f,%.6f,%.4f\n", gbps, perStep[sysMAvg], perStep[sysMLlibStar], adv)
	}
	r.addLine("Expected shape: the advantage is largest on slow networks and decays as bandwidth")
	r.addLine("grows, bounded below by scheduling overheads — B2 is a communication bottleneck.")
	r.addFile("ext_bandwidth.csv", csv)
	return r, nil
}

// runExtSpeculation evaluates Spark's speculative execution against the
// heterogeneous cluster's stragglers: MLlib with flat aggregation (pure,
// re-runnable gradient tasks) with and without speculation.
func runExtSpeculation(cfg RunConfig) (*Report, error) {
	w, err := loadWorkload("wx", cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ext-speculation", Title: "Speculative execution vs stragglers (MLlib, cluster2)"}
	csv := "speculation_quantile,time_per_step_s\n"
	for _, quantile := range []float64{0, 0.75} {
		spec := clusters.Cluster2(32)
		spec.Engine.SpeculationQuantile = quantile
		// Heavy-tailed stragglers: 8% of tasks run 20x slower — the regime
		// spark.speculation exists for (uniform slowness cannot be helped
		// by re-running, severe rare slowness can).
		spec.Engine.StragglerFactor = 19
		spec.Engine.StragglerProb = 0.08
		prm := tuned(sysMLlib, w.ds.Name, 0)
		prm.MaxSteps = 30
		prm.Aggregators = 32 // flat: tasks are pure and speculatable
		prm.EvalEvery = 10
		res, err := runSystem(sysMLlib, spec, w, prm, cfg.Sink)
		if err != nil {
			return nil, err
		}
		perStep := res.SimTime / float64(res.CommSteps)
		label := "off"
		if quantile > 0 {
			label = fmt.Sprintf("quantile %.2f", quantile)
		}
		r.addLine("speculation %-14s %.4f s/step", label, perStep)
		r.addMetric(fmt.Sprintf("s_per_step_q%g", quantile), perStep)
		csv += fmt.Sprintf("%g,%.6f\n", quantile, perStep)
	}
	r.addLine("Expected shape: speculation trims the per-step straggler tail (BSP steps are")
	r.addLine("gated by the slowest task; a second copy on a faster node usually wins).")
	r.addFile("ext_speculation.csv", csv)
	return r, nil
}
