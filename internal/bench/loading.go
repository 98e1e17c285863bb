package bench

import (
	"fmt"

	"mllibstar/internal/clusters"
	"mllibstar/internal/des"
	"mllibstar/internal/dfs"
	"mllibstar/internal/engine"
	"mllibstar/internal/glm"
	"mllibstar/internal/obs"
	"mllibstar/internal/opt"
)

func init() {
	register(Experiment{
		ID:    "ext-loading",
		Title: "Substrate: HDFS loading and the RDD cache cliff (why Spark caches for iterative ML)",
		Run:   runExtLoading,
	})
}

// loadStage runs one stage in which every executor reads its share of the
// file's blocks from the DFS (datanodes co-located with the executors, so
// round-robin block placement gives local reads).
func loadStage(ctx *engine.Context, p *des.Proc, fs *dfs.FS, f *dfs.File, name string) (localReads, totalReads int) {
	k := ctx.NumExecutors()
	tasks := make([]engine.Task, k)
	for i := 0; i < k; i++ {
		i := i
		tasks[i] = engine.Task{
			Exec: ctx.Cluster.Execs[i],
			Run: func(p *des.Proc, ex *engine.Executor) (any, float64) {
				local := 0
				blocks := f.BlocksFor(i, k)
				for _, idx := range blocks {
					if fs.ReadBlock(p, ex.Name(), f, idx) {
						local++
					}
				}
				return [2]int{local, len(blocks)}, 16
			},
		}
	}
	for _, r := range ctx.RunStage(p, name, tasks) {
		c := r.([2]int)
		localReads += c[0]
		totalReads += c[1]
	}
	return localReads, totalReads
}

// runExtLoading measures (a) loading the kdd12 replica from the simulated
// HDFS, and (b) the cost of NOT caching: re-reading the input every epoch
// versus Spark's cache-once-then-iterate, the property that makes Spark
// "fit well for iterative machine learning workloads" (paper §III-A).
func runExtLoading(cfg RunConfig) (*Report, error) {
	w, err := loadWorkload("kdd12", cfg)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ext-loading", Title: "HDFS loading and the cache cliff (kdd12, 8 executors)"}
	const epochs = 5
	dataBytes := float64(w.ds.Stats().SizeBytes)
	obj := glm.SVM(0)
	parts := w.ds.Partition(8, 3)
	dim := w.ds.Features

	spec := clusters.Cluster1(8)
	_, cl, ctx := spec.Build(obs.Active())
	fs, err := dfs.New(cl.Sim, cl.Net, dfs.Config{
		Nodes:       cl.Execs,
		BlockBytes:  dataBytes / 32, // ~32 blocks over 8 datanodes
		Replication: 3,
		DiskBW:      100e6,
	})
	if err != nil {
		return nil, err
	}
	file, err := fs.Store(w.ds.Name, dataBytes)
	if err != nil {
		return nil, err
	}

	var loadTime, cachedTrain, uncachedTotal float64
	var localReads, totalReads int
	cl.Sim.Spawn("driver", func(p *des.Proc) {
		// (a) Load once, then train from cached partitions.
		start := p.Now()
		localReads, totalReads = loadStage(ctx, p, fs, file, "load0")
		loadTime = p.Now() - start

		start = p.Now()
		locals := make([][]float64, 8)
		for i := range locals {
			locals[i] = make([]float64, dim)
		}
		trainEpoch := func(t int) {
			tasks := make([]engine.Task, 8)
			for i := 0; i < 8; i++ {
				i := i
				tasks[i] = engine.Task{Exec: cl.Execs[i], Run: func(p *des.Proc, ex *engine.Executor) (any, float64) {
					work := opt.LocalPassView(obj, locals[i], parts[i], opt.Const(0.1), 0, nil)
					ex.Charge(p, float64(work))
					return nil, 0
				}}
			}
			ctx.RunStage(p, fmt.Sprintf("epoch%d", t), tasks)
		}
		for t := 0; t < epochs; t++ {
			trainEpoch(t)
		}
		cachedTrain = p.Now() - start

		// (b) No cache: every epoch re-reads the input first.
		start = p.Now()
		for t := 0; t < epochs; t++ {
			loadStage(ctx, p, fs, file, fmt.Sprintf("reload%d", t))
			trainEpoch(epochs + t)
		}
		uncachedTotal = p.Now() - start
	})
	cl.Sim.Run()

	cachedTotal := loadTime + cachedTrain
	r.addLine("dataset %.1f MB in %d blocks, replication 3, %d/%d reads local",
		dataBytes/1e6, len(file.Blocks), localReads, totalReads)
	r.addLine("load once:            %8.4f s", loadTime)
	r.addLine("%d epochs, cached:     %8.4f s  (total %8.4f s)", epochs, cachedTrain, cachedTotal)
	r.addLine("%d epochs, no cache:   %8.4f s  (%.1fx the cached total)", epochs, uncachedTotal, uncachedTotal/cachedTotal)
	r.addMetric("cache_speedup", uncachedTotal/cachedTotal)
	r.addMetric("local_read_fraction", float64(localReads)/float64(totalReads))
	r.addFile("ext_loading.csv", fmt.Sprintf(
		"metric,value\nload_once_s,%.6f\ncached_epochs_s,%.6f\nuncached_total_s,%.6f\nlocal_reads,%d\ntotal_reads,%d\n",
		loadTime, cachedTrain, uncachedTotal, localReads, totalReads))
	r.addLine("Reading: with in-memory caching the input is read once; without it every epoch")
	r.addLine("pays the full disk scan — Spark's core advantage for iterative ML (paper §III-A).")
	return r, nil
}
