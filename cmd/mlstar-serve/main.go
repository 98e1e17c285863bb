// Command mlstar-serve runs the online scoring tier over a trained model
// checkpoint: a sharded deployment inside the deterministic simulated
// cluster, driven by the closed-loop load generator, with optional hot model
// swap mid-traffic. Every run with the same flags is bit-identical — virtual
// timings, scores, event logs, and metrics files all reproduce exactly.
//
// Usage:
//
//	mlstar-train -preset avazu -steps 20 -save-model ckpt.json
//	mlstar-serve -model ckpt.json -shards 4 -clients 8 -qps 2000 -requests 50
//	mlstar-serve -model ckpt_a.json -swap-model ckpt_b.json -swap-at 0.05
package main

import (
	"flag"
	"fmt"
	"os"

	"mllibstar"
	"mllibstar/internal/clusters"
	"mllibstar/internal/des"
	"mllibstar/internal/obs"
	"mllibstar/internal/prof"
	"mllibstar/internal/serve"
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
		modelPath = flag.String("model", "", "model checkpoint to serve (from mlstar-train -save-model)")
		swapPath  = flag.String("swap-model", "", "checkpoint to hot-swap in mid-traffic (optional)")
		swapAt    = flag.Float64("swap-at", 0.05, "virtual time (seconds) at which the swap controller starts the install")
		shards    = flag.Int("shards", 4, "number of scoring shards")
		clientsN  = flag.Int("clients", 8, "number of load-generator clients")
		requests  = flag.Int("requests", 50, "requests per client")
		qps       = flag.Float64("qps", 2000, "aggregate request arrival rate (virtual seconds)")
		nnz       = flag.Int("nnz", 12, "nonzero features per generated request")
		zipfS     = flag.Float64("zipf-s", 1.2, "Zipf skew of feature popularity (>1; higher = hotter head)")
		batchMax  = flag.Int("batch-max", 8, "flush a scoring batch at this many requests")
		budget    = flag.Float64("batch-budget", 0.002, "virtual seconds from first admission to forced batch flush")
		cluster2  = flag.Bool("cluster2", false, "use the heterogeneous 10 Gbps cluster preset")
		seed      = flag.Int64("seed", 42, "load-generator seed")
	)
	pc := prof.Register(flag.CommandLine)
	flag.Parse()
	stop, err := pc.Start()
	if err != nil {
		return err
	}
	defer stop()
	return serveModel(*modelPath, *swapPath, *swapAt, *shards, *clientsN, *requests,
		*qps, *nnz, *zipfS, *batchMax, *budget, *cluster2, *seed)
}

func serveModel(modelPath, swapPath string, swapAt float64, shards, clientsN, requests int,
	qps float64, nnz int, zipfS float64, batchMax int, budget float64, cluster2 bool, seed int64) error {
	if modelPath == "" {
		return fmt.Errorf("mlstar-serve: -model is required (train one with mlstar-train -save-model)")
	}
	weights, err := loadWeights(modelPath)
	if err != nil {
		return err
	}
	var swapWeights []float64
	if swapPath != "" {
		swapWeights, err = loadWeights(swapPath)
		if err != nil {
			return err
		}
		if len(swapWeights) != len(weights) {
			return fmt.Errorf("mlstar-serve: swap checkpoint has %d weights, serving %d", len(swapWeights), len(weights))
		}
	}

	spec := clusters.Cluster1(shards)
	if cluster2 {
		spec = clusters.Cluster2(shards)
	}
	sim, net, names := spec.BuildServe(shards, clientsN, obs.Active())
	d, err := serve.New(sim, net, serve.Names{Router: names.Router, Shards: names.Shards},
		serve.Config{Dim: len(weights), BatchMax: batchMax, BatchBudget: budget}, weights)
	if err != nil {
		return err
	}
	lc := serve.LoadConfig{
		PerClient: requests, QPS: qps, NNZ: nnz, ZipfS: zipfS, ZipfV: 1, Seed: seed,
	}
	load, err := d.SpawnLoad(sim, names.Clients, lc)
	if err != nil {
		return err
	}
	if swapWeights != nil {
		sim.Spawn("serve:ctl", func(p *des.Proc) {
			p.WaitUntil(swapAt)
			d.Install(p, swapWeights)
			epoch := d.Swap(p)
			fmt.Printf("hot swap: epoch %d active at t=%.6f s\n", epoch, p.Now())
		})
	}
	end := sim.Run()

	results := load.Results()
	total := len(results)
	fmt.Printf("deployment: %d shards, %d clients, dim %d, batch max %d, budget %.4f s (%s)\n",
		shards, clientsN, len(weights), batchMax, budget, spec.Name)
	fmt.Printf("served: %d requests in %.6f virtual s  (%.0f req/s)\n",
		total, end, float64(total)/end)
	fmt.Printf("latency: p50 %.6f s   p99 %.6f s\n",
		serve.LatencyQuantile(results, 0.50), serve.LatencyQuantile(results, 0.99))
	byEpoch := map[int64]int{}
	for _, r := range results {
		byEpoch[r.Epoch]++
	}
	for e := int64(0); e <= d.Epoch(); e++ {
		fmt.Printf("epoch %d: %d requests\n", e, byEpoch[e])
	}
	fmt.Printf("traffic: %.1f KB over %d messages\n",
		net.TotalBytes()/1e3, net.TotalMessages())
	return nil
}

func loadWeights(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := mllibstar.LoadModel(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Weights) == 0 {
		return nil, fmt.Errorf("%s: checkpoint has no weights", path)
	}
	return m.Weights, nil
}
