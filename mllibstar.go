// Package mllibstar is a Go reproduction of "MLlib*: Fast Training of GLMs
// using Spark MLlib" (Zhang et al., ICDE 2019). It trains generalized
// linear models (linear SVM, logistic regression) with distributed
// mini-batch gradient descent on a deterministic simulated cluster, and
// implements every system the paper evaluates:
//
//   - MLlib — the baseline: SendGradient with treeAggregate (one global
//     model update per communication step, aggregation through the driver).
//   - MLlib+MA — SendModel with model averaging, still through the driver.
//   - MLlib* — the paper's contribution: model averaging plus a driverless
//     AllReduce built from Reduce-Scatter and AllGather shuffles.
//   - Petuum / Petuum* — parameter-server trainers with per-batch
//     communication and model summation / averaging, under SSP.
//   - Angel — a parameter-server trainer with per-epoch communication.
//
// Training runs real gradient math over real (or synthetic) data while all
// computation and communication is charged to a simulated cluster clock, so
// a Result carries both a genuine convergence curve and a faithful
// distributed execution timeline. See DESIGN.md for the architecture and
// EXPERIMENTS.md for the paper-vs-measured reproduction record.
package mllibstar

import (
	"fmt"
	"io"
	"slices"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/angel"
	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/lbfgs"
	"mllibstar/internal/mavg"
	"mllibstar/internal/metrics"
	"mllibstar/internal/mllib"
	"mllibstar/internal/obs"
	"mllibstar/internal/petuum"
	"mllibstar/internal/train"
	"mllibstar/internal/vec"
)

// System selects the distributed training system.
type System string

// The systems of the paper's evaluation, plus the two distributed L-BFGS
// variants built for the paper's follow-up question (§VII): LBFGS
// aggregates gradients through the driver like spark.ml; LBFGSStar uses
// the AllReduce pattern of MLlib*. Both require a differentiable loss
// (logistic or squared).
const (
	MLlib      System = "MLlib"
	MLlibMA    System = "MLlib+MA"
	MLlibStar  System = "MLlib*"
	Petuum     System = "Petuum"
	PetuumStar System = "Petuum*"
	Angel      System = "Angel"
	LBFGS      System = "LBFGS"
	LBFGSStar  System = "LBFGS*"
	// MLlibStarSVRG is MLlib* with variance-reduced (SVRG) local updates:
	// two AllReduce collectives per step, constant learning rate,
	// differentiable losses only.
	MLlibStarSVRG System = "MLlib*-SVRG"
)

// Systems lists every supported system.
func Systems() []System {
	return []System{MLlib, MLlibMA, MLlibStar, Petuum, PetuumStar, Angel, LBFGS, LBFGSStar, MLlibStarSVRG}
}

func unknownSystem(system System) error {
	return fmt.Errorf("mllibstar: unknown system %q (valid: %q)", system, Systems())
}

// Dataset is a labelled sparse dataset (see GenerateDataset, ReadLibSVM,
// and PresetDataset).
type Dataset = data.Dataset

// Example is one labelled training instance.
type Example = glm.Example

// Curve is a recorded convergence trajectory.
type Curve = metrics.Curve

// Cluster describes the simulated cluster a training run executes on.
type Cluster = clusters.Spec

// Cluster1 is the paper's 9-node / 1 Gbps testbed (pass 8 executors to
// match the paper).
func Cluster1(executors int) Cluster { return clusters.Cluster1(executors) }

// Cluster2 is the paper's heterogeneous 10 Gbps production testbed.
func Cluster2(executors int) Cluster { return clusters.Cluster2(executors) }

// Config configures a training run.
type Config struct {
	// System selects the trainer (default MLlibStar).
	System System
	// Cluster is the simulated cluster (default Cluster1(8)).
	Cluster Cluster

	// Loss is "hinge" (default), "logistic", or "squared".
	Loss string
	// L2 and L1 are the regularization strengths (at most one nonzero).
	L2, L1 float64

	// Eta is the base learning rate (default 0.1); Decay applies 1/sqrt(t).
	Eta   float64
	Decay bool
	// BatchFraction is the mini-batch size as a fraction of the data, for
	// the batch-based systems (MLlib, Petuum, Angel).
	BatchFraction float64
	// LocalPasses is how many local passes SendModel systems run per
	// communication step (default 1).
	LocalPasses int
	// Staleness is the SSP slack for parameter-server systems (0 = BSP).
	Staleness int
	// Reweight enables Splash-style reweighted model averaging in MLlib*
	// (local steps scaled by the worker count before averaging).
	Reweight bool
	// AdaGrad switches MLlib*'s local optimizer to AdaGrad (per-coordinate
	// adaptive steps — usually better on heavy-tailed sparse features).
	AdaGrad bool
	// TorrentBroadcast makes MLlib distribute the model with Spark's
	// chunked torrent broadcast instead of shipping it with every task.
	TorrentBroadcast bool

	// MaxSteps bounds communication steps (default 100). MaxSimTime bounds
	// simulated seconds; TargetObjective stops early when reached.
	MaxSteps        int
	MaxSimTime      float64
	TargetObjective float64

	// EvalEvery sets the curve-recording cadence in communication steps.
	EvalEvery int
	// EvalData overrides the evaluation set (default: the training data).
	EvalData []Example

	// Trace is the telemetry sink the run records into: every compute span,
	// message and stage of the simulated cluster, from which RenderGantt
	// draws the per-node gantt chart. Nil means the installed sink
	// (obs.Active, itself nil when telemetry is off).
	Trace *obs.Sink

	Seed int64
}

// Model is a trained GLM.
type Model struct {
	Weights []float64
	loss    glm.Loss
}

// Predict returns the raw margin <w, x> for an example's features.
func (m *Model) Predict(x Example) float64 { return vec.Dot(m.Weights, x.X) }

// Classify returns the predicted label (+1 or -1).
func (m *Model) Classify(x Example) float64 {
	if m.Predict(x) >= 0 {
		return 1
	}
	return -1
}

// Accuracy returns the fraction of examples classified correctly.
func (m *Model) Accuracy(data []Example) float64 { return glm.Accuracy(m.Weights, data) }

// AUC returns the area under the ROC curve of the model's margins over the
// examples — the ranking metric used for CTR-style workloads.
func (m *Model) AUC(data []Example) float64 { return glm.AUC(m.Weights, data) }

// Result is the outcome of a training run.
type Result struct {
	// Model is the final trained model.
	Model *Model
	// Curve is the objective-vs-(steps, simulated time) trajectory.
	Curve *Curve
	// SimTime is the total simulated wall time in seconds.
	SimTime float64
	// CommSteps is the number of communication steps executed.
	CommSteps int
	// TotalBytes is the payload traffic moved over the simulated network.
	TotalBytes float64
	// Updates is the total number of model updates applied.
	Updates int64
}

// objective assembles the GLM objective from the config.
func (c Config) objective() (glm.Objective, error) {
	lossName := c.Loss
	if lossName == "" {
		lossName = "hinge"
	}
	loss, err := glm.LossByName(lossName)
	if err != nil {
		return glm.Objective{}, err
	}
	if c.L1 < 0 || c.L2 < 0 {
		return glm.Objective{}, fmt.Errorf("mllibstar: negative regularization strength")
	}
	var reg glm.Regularizer = glm.None{}
	switch {
	case c.L1 > 0 && c.L2 > 0:
		// Both set: elastic net with λ = L1+L2 and the matching mix.
		total := c.L1 + c.L2
		reg = glm.ElasticNet{Strength: total, L1Ratio: c.L1 / total}
	case c.L2 > 0:
		reg = glm.L2{Strength: c.L2}
	case c.L1 > 0:
		reg = glm.L1{Strength: c.L1}
	}
	return glm.Objective{Loss: loss, Reg: reg}, nil
}

// params lowers the public config to the internal trainer parameters.
func (c Config) params(obj glm.Objective) train.Params {
	prm := train.Params{
		Objective:        obj,
		Eta:              c.Eta,
		Decay:            c.Decay,
		BatchFraction:    c.BatchFraction,
		LocalPasses:      c.LocalPasses,
		Staleness:        c.Staleness,
		Reweight:         c.Reweight,
		AdaGrad:          c.AdaGrad,
		TorrentBroadcast: c.TorrentBroadcast,
		MaxSteps:         c.MaxSteps,
		MaxSimTime:       c.MaxSimTime,
		TargetObjective:  c.TargetObjective,
		EvalEvery:        c.EvalEvery,
		Seed:             c.Seed,
	}
	if prm.Eta == 0 {
		prm.Eta = 0.1
	}
	if prm.MaxSteps == 0 {
		prm.MaxSteps = 100
	}
	return prm
}

// Train trains a GLM on the dataset with the configured system, running the
// whole distributed execution on the simulated cluster. It returns the
// final model, the convergence curve, and the simulation's accounting.
func Train(ds *Dataset, cfg Config) (*Result, error) {
	if ds == nil || len(ds.Examples) == 0 {
		return nil, fmt.Errorf("mllibstar: empty dataset")
	}
	obj, err := cfg.objective()
	if err != nil {
		return nil, err
	}
	system := cfg.System
	if system == "" {
		system = MLlibStar
	}
	// Resolved before Partition, the most expensive setup step.
	if !slices.Contains(Systems(), system) {
		return nil, unknownSystem(system)
	}
	// The collective switches shape the AllReduce and nothing else; a system
	// aggregating through the driver or a parameter server would ignore them.
	if (allreduce.Enabled() || allreduce.OverlapEnabled()) && !usesAllReduce(system) {
		return nil, fmt.Errorf("mllibstar: -pipeline, -chunks and -overlap configure the AllReduce collective, which %s does not use", system)
	}
	cluster := cfg.Cluster
	if cluster.Executors == 0 {
		cluster = Cluster1(8)
	}
	evalData := cfg.EvalData
	if evalData == nil {
		evalData = ds.Examples
	}
	sink := cfg.Trace
	if sink == nil {
		sink = obs.Active()
	}
	prm := cfg.params(obj)
	parts := ds.Partition(cluster.Executors, cfg.Seed+3)
	dim := ds.Features

	var res *train.Result
	switch system {
	case MLlib, MLlibMA, MLlibStar, MLlibStarSVRG:
		_, _, ctx := cluster.Build(sink)
		switch system {
		case MLlib:
			res, err = mllib.Train(ctx, parts, dim, prm, evalData, ds.Name)
		case MLlibMA:
			res, err = mavg.Train(ctx, parts, dim, prm, evalData, ds.Name)
		case MLlibStarSVRG:
			res, err = core.TrainSVRG(ctx, parts, dim, prm, evalData, ds.Name)
		default:
			res, err = core.Train(ctx, parts, dim, prm, evalData, ds.Name)
		}
	case Petuum, PetuumStar:
		sim, net, names := cluster.BuildNet(sink)
		res, err = petuum.Train(sim, net, names, parts, dim, prm, evalData, ds.Name,
			petuum.Summation(system == Petuum))
	case Angel:
		sim, net, names := cluster.BuildNet(sink)
		res, err = angel.Train(sim, net, names, parts, dim, prm, evalData, ds.Name)
	case LBFGS, LBFGSStar:
		_, _, ctx := cluster.Build(sink)
		res, err = lbfgs.TrainDistributed(ctx, parts, dim, lbfgs.DistConfig{
			Objective:       obj,
			MaxIters:        prm.MaxSteps,
			AllReduce:       usesAllReduce(system),
			TargetObjective: cfg.TargetObjective,
			MaxSimTime:      cfg.MaxSimTime,
			EvalEvery:       cfg.EvalEvery,
			Seed:            cfg.Seed,
		}, evalData, ds.Name)
	default:
		return nil, unknownSystem(system)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Model:      &Model{Weights: res.FinalW, loss: obj.Loss},
		Curve:      res.Curve,
		SimTime:    res.SimTime,
		CommSteps:  res.CommSteps,
		TotalBytes: res.TotalBytes,
		Updates:    res.Updates,
	}, nil
}

// usesAllReduce reports whether the system aggregates through the AllReduce
// collective rather than through the driver or a parameter server.
func usesAllReduce(system System) bool {
	return system == MLlibStar || system == LBFGSStar || system == MLlibStarSVRG
}

// GenerateDataset builds a synthetic classification dataset with rows
// examples, cols features, and about nnzPerRow nonzeros per example, from a
// planted linear model with mild label noise.
func GenerateDataset(name string, rows, cols, nnzPerRow int, seed int64) *Dataset {
	return data.Generate(data.Spec{
		Name: name, Rows: rows, Cols: cols, NNZPerRow: nnzPerRow,
		ZipfS: 1.7, NoiseRate: 0.05, Seed: seed,
	})
}

// PresetDataset generates a scaled-down replica of one of the paper's five
// workloads: "avazu", "url", "kddb", "kdd12", or "wx". scale divides the
// paper-scale rows and columns (e.g. 1000).
func PresetDataset(name string, scale float64) (*Dataset, error) {
	spec, err := data.Preset(name, scale)
	if err != nil {
		return nil, err
	}
	return data.Generate(spec), nil
}

// ReadLibSVM parses a dataset in libsvm text format.
func ReadLibSVM(r io.Reader, name string) (*Dataset, error) {
	return data.ReadLibSVM(r, name)
}

// WriteLibSVM writes a dataset in libsvm text format.
func WriteLibSVM(w io.Writer, ds *Dataset) error {
	return data.WriteLibSVM(w, ds)
}

// NewTrace returns a sink to pass as Config.Trace: the installed sink when it
// records causally, otherwise a fresh causal sink that is not installed (a
// causal sink keeps each message's tag, the gantt CSV's note). After
// training, render it with RenderGantt or RenderGanttSVG.
func NewTrace() *obs.Sink { return obs.CausalSink() }

// RenderGantt renders the gantt chart of every event in the sink as ASCII of
// the given width, one row per cluster node — the visualization of the
// paper's Figure 3.
func RenderGantt(sink *obs.Sink, width int) string {
	return obs.GanttFromEvents(sink.Events()).ASCII(width)
}

// RenderGanttSVG renders the gantt chart of every event in the sink as SVG,
// in the documented palette: cool hues for computation, warm hues for
// communication, and a legend labeling the two families (see
// internal/obs/gantt.go for the exact scheme).
func RenderGanttSVG(sink *obs.Sink, title string, width int) string {
	return obs.GanttFromEvents(sink.Events()).SVG(title, width)
}
