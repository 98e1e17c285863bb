package main

// trainSpec is one mllibstar.Train call of a repetition. Every run has a
// fixed step count and no target objective, so two commits do identical
// work, and the 1/sqrt(t) step-size decay the repository's tuned defaults use; layer names the trainer's per-layer metrics (<layer>.wall_s, ...).
type trainSpec struct {
	layer     string
	system    string
	loss      string
	l2, eta   float64
	batch     float64
	staleness int
	steps     int
}

// workload is one fixed-work input of the benchmark: a generated dataset, a
// simulated cluster, the engine switches of the process, and the list of
// training runs that make up one repetition.
type workload struct {
	name, why          string
	rows, cols, nnzRow int
	evalRows           int      // objective is evaluated on this many subsampled rows; 0 = the training set
	cluster            string   // cluster1 | cluster2 | commbound
	k                  int      // executors
	switches           []string // engine switches, parsed by the flag surface every CLI uses
	causal             bool     // each run records into a fresh causal sink and its log is analyzed
	runs               []trainSpec
	reps               int // timed repetitions when -seconds is not given
}

// The sizes are chosen so that each workload's host time is dominated by a
// different layer (README.md has the measured budget tables). Rows × cols ×
// nnz/row follow the shape of one of the paper's datasets each.
var workloads = []workload{
	{
		name: "compute8",
		why:  "avazu-shaped, kernel-bound: data slab SGD/gradient kernels and Partition dominate; des/simnet changes must not show",
		rows: 400000, cols: 10000, nnzRow: 15, evalRows: 4000,
		cluster: "cluster1", k: 8,
		runs: []trainSpec{
			{layer: "core", system: "MLlib*", loss: "hinge", l2: 0.1, eta: 0.1, steps: 40},
			{layer: "mllib", system: "MLlib", loss: "hinge", l2: 0.1, eta: 4, batch: 0.1, steps: 200},
		},
		reps: 15,
	},
	{
		name: "scale128",
		why:  "wx-shaped on 128 heterogeneous executors, event-bound (Fig. 6): 32512 messages per MLlib* superstep through allreduce, engine, simnet, des",
		rows: 46000, cols: 10000, nnzRow: 64,
		cluster: "cluster2", k: 128,
		runs: []trainSpec{
			{layer: "core", system: "MLlib*", loss: "hinge", eta: 0.3, steps: 10},
			{layer: "mllib", system: "MLlib", loss: "hinge", eta: 48, batch: 0.1, steps: 100},
		},
		reps: 11,
	},
	{
		name: "ps8",
		why:  "kddb-shaped, underdetermined: the same des/simnet substrate through ps pull/push with SSP admission, no engine stages, no collectives",
		rows: 9600, cols: 15000, nnzRow: 29,
		cluster: "cluster1", k: 8,
		runs: []trainSpec{
			{layer: "petuum", system: "Petuum*", loss: "hinge", eta: 1, batch: 0.01, staleness: 1, steps: 800},
			{layer: "angel", system: "Angel", loss: "hinge", eta: 10, batch: 0.01, steps: 40},
		},
		reps: 13,
	},
	{
		name: "wide8",
		why:  "url-shaped, model much larger than data, every non-default path: sparse delta coding, chunked streamed collective, feature-major GradStream, causal telemetry and analysis",
		rows: 16000, cols: 200000, nnzRow: 20,
		cluster: "commbound", k: 8,
		switches: []string{"-sparse", "-overlap"},
		causal:   true,
		runs: []trainSpec{
			{layer: "lbfgs", system: "LBFGS*", loss: "logistic", l2: 0.01, steps: 30},
			{layer: "core", system: "MLlib*", loss: "hinge", l2: 0.1, eta: 0.1, steps: 30},
		},
		reps: 9,
	},
}

// trainerLayers lists every trainer key a workload may name, in print order.
var trainerLayers = []string{"core", "mllib", "petuum", "angel", "lbfgs"}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// smoke returns the workload at test size: inputs ÷20, steps ÷5, two
// repetitions. The cluster, switches and run list are unchanged, so the smoke
// size exercises every code path of the full size.
func (w workload) smoke() workload {
	w.rows /= 20
	w.cols /= 20
	if w.evalRows > 0 {
		w.evalRows /= 20
	}
	runs := make([]trainSpec, len(w.runs))
	for i, r := range w.runs {
		r.steps = (r.steps + 4) / 5
		runs[i] = r
	}
	w.runs = runs
	w.reps = 2
	return w
}

// kernelSpec is the run whose objective and step size the kernel probes use:
// the workload's MLlib* run when it has one, else its first run.
func (w *workload) kernelSpec() trainSpec {
	for _, ts := range w.runs {
		if ts.layer == "core" {
			return ts
		}
	}
	return w.runs[0]
}

// batchFraction is the mini-batch share of the workload's MLlib run, or
// MLlib's default tenth when it has none.
func (w *workload) batchFraction() float64 {
	for _, ts := range w.runs {
		if ts.layer == "mllib" {
			return ts.batch
		}
	}
	return 0.1
}
