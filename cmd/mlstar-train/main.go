// Command mlstar-train trains a GLM with a chosen distributed system on a
// chosen dataset, on the simulated cluster, and reports the convergence
// curve and final accuracy.
//
// Usage:
//
//	mlstar-train -system "MLlib*" -preset kdd12 -scale 5000 -steps 50
//	mlstar-train -system MLlib -data train.libsvm -l2 0.1 -eta 4 -batch 0.1
package main

import (
	"flag"
	"fmt"
	"os"

	"mllibstar"
	"mllibstar/internal/allreduce"
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
		system    = flag.String("system", "MLlib*", fmt.Sprintf("training system, one of %q", mllibstar.Systems()))
		preset    = flag.String("preset", "", "synthetic preset dataset: avazu, url, kddb, kdd12, wx")
		scale     = flag.Float64("scale", 5000, "preset downscale factor")
		dataPath  = flag.String("data", "", "libsvm file to train on (alternative to -preset)")
		loss      = flag.String("loss", "hinge", "loss: hinge, logistic, squared")
		l2        = flag.Float64("l2", 0, "L2 regularization strength")
		l1        = flag.Float64("l1", 0, "L1 regularization strength")
		eta       = flag.Float64("eta", 0.3, "base learning rate")
		decay     = flag.Bool("decay", true, "apply 1/sqrt(t) learning-rate decay")
		batch     = flag.Float64("batch", 0.1, "mini-batch fraction (batch-based systems)")
		steps     = flag.Int("steps", 50, "max communication steps")
		target    = flag.Float64("target", 0, "stop when the objective reaches this value (0 = off)")
		execs     = flag.Int("executors", 8, "number of executors/workers")
		cluster2  = flag.Bool("cluster2", false, "use the heterogeneous 10 Gbps cluster preset")
		adagrad   = flag.Bool("adagrad", false, "use AdaGrad as the local optimizer (MLlib*)")
		reweight  = flag.Bool("reweight", false, "Splash-style reweighted averaging (MLlib*)")
		torrent   = flag.Bool("torrent", false, "use torrent broadcast (MLlib)")
		stale     = flag.Int("staleness", 0, "SSP staleness (parameter-server systems)")
		seed      = flag.Int64("seed", 7, "random seed")
		csvOut    = flag.String("csv", "", "write the convergence curve CSV to this file")
		gantt     = flag.Bool("gantt", false, "print an ASCII gantt chart of the run")
		saveModel = flag.String("save-model", "", "write the trained model checkpoint (JSON) to this file; mllibstar.LoadModel reads it back")
	)
	pc := prof.Register(flag.CommandLine)
	flag.Parse()
	stop, err := pc.Start()
	if err != nil {
		return err
	}
	defer stop()

	ds, err := loadDataset(*preset, *scale, *dataPath)
	if err != nil {
		return err
	}
	st := ds.Stats()
	fmt.Printf("dataset: %s\n", st)

	// The model size is known now, so the chunk count can be checked against
	// the smallest AllReduce partition (a clear error beats a silent clamp).
	if allreduce.Enabled() {
		if err := allreduce.ValidateChunks(allreduce.Chunks(), ds.Features, *execs); err != nil {
			return err
		}
	}

	cl := mllibstar.Cluster1(*execs)
	if *cluster2 {
		cl = mllibstar.Cluster2(*execs)
	}
	cfg := mllibstar.Config{
		System:           mllibstar.System(*system),
		Cluster:          cl,
		Loss:             *loss,
		L2:               *l2,
		L1:               *l1,
		Eta:              *eta,
		Decay:            *decay,
		BatchFraction:    *batch,
		MaxSteps:         *steps,
		TargetObjective:  *target,
		AdaGrad:          *adagrad,
		Reweight:         *reweight,
		TorrentBroadcast: *torrent,
		Staleness:        *stale,
		Seed:             *seed,
	}
	if *gantt {
		// The gantt is drawn from the run's event log: the installed sink
		// when -obs and friends set one (so the log still gets this run),
		// otherwise a private one.
		cfg.Trace = obs.Active()
		if cfg.Trace == nil {
			cfg.Trace = obs.NewSink()
		}
	}
	res, err := mllibstar.Train(ds, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("system: %s  executors: %d\n", *system, *execs)
	fmt.Printf("communication steps: %d   simulated time: %.3f s   traffic: %.1f MB   updates: %d\n",
		res.CommSteps, res.SimTime, res.TotalBytes/1e6, res.Updates)
	final := res.Curve.Final()
	fmt.Printf("objective: start %.4f -> final %.4f (best %.4f)\n",
		res.Curve.Points[0].Objective, final.Objective, res.Curve.Best())
	fmt.Printf("training accuracy: %.2f%%\n", res.Model.Accuracy(ds.Examples)*100)

	if *gantt {
		fmt.Println(mllibstar.RenderGantt(cfg.Trace, 110))
	}
	if *csvOut != "" {
		if err := os.WriteFile(*csvOut, []byte(res.Curve.CSV(true)), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *csvOut)
	}
	if *saveModel != "" {
		f, err := os.Create(*saveModel)
		if err != nil {
			return err
		}
		if err := res.Model.Save(f); err != nil {
			_ = f.Close() // the Save error is the one to report
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *saveModel)
	}
	return nil
}

func loadDataset(preset string, scale float64, path string) (*mllibstar.Dataset, error) {
	switch {
	case preset != "" && path != "":
		return nil, fmt.Errorf("use either -preset or -data, not both")
	case preset != "":
		return mllibstar.PresetDataset(preset, scale)
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return mllibstar.ReadLibSVM(f, path)
	default:
		return mllibstar.PresetDataset("avazu", scale)
	}
}
