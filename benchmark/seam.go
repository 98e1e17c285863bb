package main

// seam.go is the only file of the benchmark that names a symbol of the
// repository. The harness, the statistics, the span recorder, the compare and
// self-check modes see the program through the functions below, so a change
// to a layer's API is absorbed here and nowhere else.

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"

	"mllibstar"
	"mllibstar/internal/allreduce"
	"mllibstar/internal/causal"
	"mllibstar/internal/clusters"
	"mllibstar/internal/data"
	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/glm"
	"mllibstar/internal/obs"
	"mllibstar/internal/opt"
	"mllibstar/internal/par"
	"mllibstar/internal/prof"
	"mllibstar/internal/ps"
	"mllibstar/internal/sparse"
	"mllibstar/internal/train"
	"mllibstar/internal/vec"
)

// configureEngine sets the process-wide engine switches through the flag
// surface every CLI of the repository uses. The benchmark never names an off
// path and never calls a layer's Configure directly.
func configureEngine(switches []string) error {
	fs := flag.NewFlagSet("engine", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	pc := prof.Register(fs)
	if err := fs.Parse(switches); err != nil {
		return fmt.Errorf("engine switches %v: %w", switches, err)
	}
	// No profile or telemetry file is requested, so the stop function has
	// nothing to flush.
	_, err := pc.Start()
	return err
}

// inputs is one workload's generated dataset.
type inputs struct {
	ds      *mllibstar.Dataset
	eval    []mllibstar.Example // nil = evaluate on the training set
	dim     int
	nnz     int
	evalNNZ int
}

// generateInputs builds the workload's dataset from the seed and records one
// setup span with a child per step.
func generateInputs(w *workload, seed int64, tr *tracer, parent int) *inputs {
	setup := tr.begin("setup", parent)
	sp := tr.begin("data.generate", setup)
	ds := mllibstar.GenerateDataset(w.name, w.rows, w.cols, w.nnzRow, seed)
	tr.end(sp)
	in := &inputs{ds: ds, dim: ds.Features}
	if w.evalRows > 0 {
		sp = tr.begin("data.subsample", setup)
		in.eval = ds.Subsample(w.evalRows, seed+1).Examples
		tr.end(sp)
	}
	tr.end(setup)
	in.nnz = glm.NNZTotal(ds.Examples)
	in.evalNNZ = in.nnz
	if in.eval != nil {
		in.evalNNZ = glm.NNZTotal(in.eval)
	}
	return in
}

// fingerprint is an FNV-64a hash over 64-bit words.
type fingerprint struct{ h hash.Hash64 }

func newFingerprint() fingerprint { return fingerprint{fnv.New64a()} }

func (f fingerprint) add(u uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], u)
	_, _ = f.h.Write(b[:]) // hash.Hash never fails
}

// hashInputs fingerprints the dataset, so a test can tell that another seed
// gave other inputs.
func hashInputs(in *inputs) uint64 {
	f := newFingerprint()
	for _, e := range in.ds.Examples {
		f.add(math.Float64bits(e.Label))
		for i, ix := range e.X.Ind {
			f.add(uint64(ix))
			f.add(math.Float64bits(e.X.Val[i]))
		}
	}
	return f.h.Sum64()
}

func hashWeights(w []float64) uint64 {
	f := newFingerprint()
	for _, x := range w {
		f.add(math.Float64bits(x))
	}
	return f.h.Sum64()
}

func clusterFor(w *workload) mllibstar.Cluster {
	switch w.cluster {
	case "cluster2":
		return mllibstar.Cluster2(w.k)
	case "commbound":
		return clusters.CommBound(w.k)
	}
	return mllibstar.Cluster1(w.k)
}

// runOutcome is what one training run of a repetition produced: the
// simulated-clock results, the fingerprint of the final model, and, when the
// run recorded a causal log, the facts of its analysis.
type runOutcome struct {
	simS, bytes        float64
	objFirst, objFinal float64
	steps              int
	weights            uint64
	log                logFacts
}

// logFacts summarizes one causal event log and its analysis.
type logFacts struct {
	events, nodes int
	logBytes      int64
	span          float64 // summed step spans, the weight of the shares below
	driver        float64
	network       float64
	compute       float64
	wait          float64
	critDriver    float64
	makespan      float64
	retimed       float64 // identity re-timing; must equal makespan bit for bit
}

// trainRun executes one training run of the repetition through the root API.
// With sink set it records into a fresh causal sink and analyzes the log.
func trainRun(in *inputs, w *workload, ts trainSpec, seed int64, sink bool, tr *tracer, parent int) (runOutcome, error) {
	cfg := mllibstar.Config{
		System:        mllibstar.System(ts.system),
		Cluster:       clusterFor(w),
		Loss:          ts.loss,
		L2:            ts.l2,
		Eta:           ts.eta,
		Decay:         true,
		BatchFraction: ts.batch,
		Staleness:     ts.staleness,
		MaxSteps:      ts.steps,
		EvalData:      in.eval,
		Seed:          seed,
	}
	var s *obs.Sink
	if sink {
		s = obs.EnableCausal()
		defer obs.Disable()
	}
	sp := tr.begin(ts.layer+".train", parent)
	res, err := mllibstar.Train(in.ds, cfg)
	tr.end(sp)
	if err != nil {
		return runOutcome{}, fmt.Errorf("%s: %w", ts.system, err)
	}
	out := runOutcome{
		simS:     res.SimTime,
		bytes:    res.TotalBytes,
		objFirst: res.Curve.Points[0].Objective,
		objFinal: res.Curve.Final().Objective,
		steps:    res.CommSteps,
		weights:  hashWeights(res.Model.Weights),
	}
	if s != nil {
		obs.Disable()
		out.log, err = analyzeLog(s, tr, parent)
		if err != nil {
			return out, fmt.Errorf("%s: %w", ts.system, err)
		}
	}
	return out, nil
}

// countingWriter counts the bytes of an event log without keeping them.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// analyzeLog runs the telemetry consumers over one run's log: attribution,
// graph construction, critical path, an identity re-timing, and the JSONL
// encoding.
func analyzeLog(s *obs.Sink, tr *tracer, parent int) (logFacts, error) {
	events := s.Events()
	lf := logFacts{events: len(events)}

	sp := tr.begin("obs.attribute", parent)
	rep := obs.Attribute(events)
	tr.end(sp)
	lf.span, lf.driver, lf.network, lf.compute, lf.wait =
		rep.Span, rep.DriverShare, rep.NetworkShare, rep.ComputeShare, rep.WaitShare

	sp = tr.begin("causal.analyze", parent)
	g, err := causal.Analyze(events)
	tr.end(sp)
	if err != nil {
		return lf, fmt.Errorf("causal.Analyze: %w", err)
	}
	lf.nodes = len(g.Nodes)
	lf.makespan = g.Makespan()

	sp = tr.begin("causal.critpath", parent)
	path := causal.CriticalPath(g)
	tr.end(sp)
	_, lf.critDriver = path.Dominant()

	sp = tr.begin("causal.retime", parent)
	pred := causal.Retime(g, causal.Scenario{Name: "identity"})
	tr.end(sp)
	if pred.Err != "" {
		return lf, fmt.Errorf("causal.Retime: %s", pred.Err)
	}
	lf.retimed = pred.Makespan

	var cw countingWriter
	sp = tr.begin("obs.write", parent)
	err = s.WriteJSONL(&cw)
	tr.end(sp)
	if err != nil {
		return lf, fmt.Errorf("obs.WriteJSONL: %w", err)
	}
	lf.logBytes = cw.n
	return lf, nil
}

// ---- per-layer probes -----------------------------------------------------
//
// A probe times calls into one layer's public functions on the workload's own
// inputs, executor count and model size, and returns the seconds it took and
// the number of units of work it did; a non-nil error is a failed self-check
// (a delivered count or a closed form that does not hold).

// probeEnv is the state the probes share: the partitions a trainer would
// hold, the objective of the workload's kernel run, and one real step of
// local models — every executor's model after one local pass from zero, whose
// difference from the zero reference is what a superstep's collective moves.
type probeEnv struct {
	w      *workload
	in     *inputs
	spec   clusters.Spec
	obj    glm.Objective
	eta    float64
	parts  []data.View
	locals [][]float64
	zero   []float64
	sweeps int // passes over the whole dataset per kernel probe round
	scale  int // divisor of the event-probe iteration counts (smoke)
}

func newProbeEnv(w *workload, in *inputs, seed int64, smoke bool) (*probeEnv, error) {
	ts := w.kernelSpec()
	loss, err := glm.LossByName(ts.loss)
	if err != nil {
		return nil, err
	}
	e := &probeEnv{w: w, in: in, spec: clusterFor(w), eta: ts.eta, scale: 1,
		obj: glm.Objective{Loss: loss, Reg: glm.None{}}}
	if ts.l2 > 0 {
		e.obj.Reg = glm.L2{Strength: ts.l2}
	}
	e.parts = in.ds.Partition(w.k, seed+3)
	dim := in.ds.Features
	e.zero = make([]float64, dim)
	e.locals = make([][]float64, w.k)
	for i := range e.locals {
		e.locals[i] = make([]float64, dim)
		opt.LocalPassView(e.obj, e.locals[i], e.parts[i], opt.Const(e.eta), 0, nil)
	}
	// About 30M nonzeros keep a kernel probe round above a tenth of a second.
	e.sweeps = 1
	if !smoke && in.nnz < 30e6 {
		e.sweeps = int(30e6) / in.nnz
	}
	if smoke {
		e.scale = 20
	}
	return e, nil
}

func (e *probeEnv) dim() int { return e.in.dim }

func (e *probeEnv) partition(tr *tracer, parent int) (float64, float64, error) {
	var parts []data.View
	sec := tr.timed("probe/data.partition", parent, func() {
		parts = e.in.ds.Partition(e.w.k, 3)
	})
	if len(parts) != e.w.k {
		return sec, 1, fmt.Errorf("data.partition: %d partitions for %d executors", len(parts), e.w.k)
	}
	return sec, float64(e.in.nnz), nil
}

// sweep runs fn once per partition, sweeps times over, as closures on the
// engine's offload pool — the way a stage runs its tasks' pure closures — and
// returns the nonzeros the partitions hold, sweeps times over. A kernel's unit
// cost is therefore host time per nonzero with the pool as busy as a
// superstep keeps it, and the working set is the dataset, not one partition.
func (e *probeEnv) sweep(fn func(s, i int)) (nnz int) {
	handles := make([]*par.Handle, len(e.parts))
	for s := 0; s < e.sweeps; s++ {
		for i := range handles {
			s, i := s, i
			handles[i] = par.Do(func() { fn(s, i) })
		}
		for _, h := range handles {
			h.Join()
		}
		nnz += e.in.nnz
	}
	return nnz
}

// perPart returns one zeroed vector of length n per partition.
func (e *probeEnv) perPart(n int) [][]float64 {
	vs := make([][]float64, len(e.parts))
	for i := range vs {
		vs[i] = make([]float64, n)
	}
	return vs
}

func (e *probeEnv) sgd(tr *tracer, parent int) (float64, float64, error) {
	ws := e.perPart(e.dim())
	scratch := make([]*opt.PassScratch, len(e.parts))
	for i := range scratch {
		scratch[i] = opt.NewPassScratch()
	}
	sched := opt.Const(e.eta)
	work := make([]int, len(e.parts))
	var nnz int
	sec := tr.timed("probe/data.sgd", parent, func() {
		nnz = e.sweep(func(_, i int) {
			work[i] += opt.LocalPassView(e.obj, ws[i], e.parts[i], sched, 0, scratch[i])
		})
	})
	charged := 0
	for _, n := range work {
		charged += n
	}
	if charged < nnz {
		return sec, 1, fmt.Errorf("data.sgd: charged %d work for %d nonzeros", charged, nnz)
	}
	return sec, float64(nnz), nil
}

func (e *probeEnv) grad(tr *tracer, parent int) (float64, float64, error) {
	gs := e.perPart(e.dim())
	seen := make([]int, len(e.parts))
	var nnz int
	sec := tr.timed("probe/data.grad", parent, func() {
		nnz = e.sweep(func(_, i int) {
			_, n := data.GradAndLoss(e.obj, e.locals[0], e.parts[i], gs[i])
			seen[i] += n
		})
	})
	visited := 0
	for _, n := range seen {
		visited += n
	}
	if visited != nnz {
		return sec, 1, fmt.Errorf("data.grad: visited %d of %d nonzeros", visited, nnz)
	}
	return sec, float64(nnz), nil
}

// gradRows times the mini-batch gradient of the SendGradient trainers: the
// slab kernel over a Bernoulli sample of each partition's rows, drawn at the
// workload's batch fraction. The rows it visits are scattered over the arena,
// so a nonzero costs more here than in the sequential pass of grad.
func (e *probeEnv) gradRows(tr *tracer, parent int) (float64, float64, error) {
	// A fresh sample per sweep and partition, as every step draws its own:
	// reusing one sample would keep its rows in cache.
	rng := rand.New(rand.NewSource(11))
	samples := make([][][]int32, e.sweeps)
	for s := range samples {
		samples[s] = make([][]int32, len(e.parts))
		for p, part := range e.parts {
			for i := 0; i < part.NumRows(); i++ {
				if rng.Float64() < e.w.batchFraction() {
					samples[s][p] = append(samples[s][p], int32(i))
				}
			}
		}
	}
	gs := e.perPart(e.dim())
	seen := make([]int, len(e.parts))
	sec := tr.timed("probe/data.gradrows", parent, func() {
		e.sweep(func(s, i int) {
			seen[i] += data.AddGradientRows(e.obj, e.locals[0], e.parts[i], samples[s][i], gs[i])
		})
	})
	visited := 0
	for _, n := range seen {
		visited += n
	}
	if visited == 0 {
		return sec, 1, fmt.Errorf("data.gradrows: no nonzero visited")
	}
	return sec, float64(visited), nil
}

// gradStream times the feature-major producer the way the overlapped
// collective drives it: pass 1, then one block per (partition, chunk) range.
// The column mirror of each partition is built by its first pass and cached
// on the arena, as it is across the iterations of a training run.
func (e *probeEnv) gradStream(tr *tracer, parent int) (float64, float64, error) {
	n, k := e.dim()+1, e.w.k
	gs := e.perPart(n)
	var nnz int
	sec := tr.timed("probe/data.gradstream", parent, func() {
		nnz = e.sweep(func(_, i int) {
			st := data.NewGradStream(e.obj, e.locals[0], e.parts[i], gs[i], true, 2*float64(e.parts[i].NNZ()))
			st.Prepare()
			for j := 0; j < k; j++ {
				plo, phi := vec.PartitionRange(n, k, j)
				for c := 0; c < allreduce.DefaultChunks; c++ {
					clo, chi := vec.PartitionRange(phi-plo, allreduce.DefaultChunks, c)
					st.Produce(plo+clo, plo+chi)
				}
			}
		})
	})
	return sec, float64(nnz), nil
}

func (e *probeEnv) readLibSVM(tr *tracer, parent int) (float64, float64, error) {
	sample := e.in.ds.Subsample(len(e.in.ds.Examples)/8, 5)
	var buf bytes.Buffer
	if err := mllibstar.WriteLibSVM(&buf, sample); err != nil {
		return 0, 1, fmt.Errorf("data.readlibsvm: %w", err)
	}
	var back *mllibstar.Dataset
	var err error
	sec := tr.timed("probe/data.readlibsvm", parent, func() {
		back, err = mllibstar.ReadLibSVM(bytes.NewReader(buf.Bytes()), "roundtrip")
	})
	if err != nil {
		return sec, 1, fmt.Errorf("data.readlibsvm: %w", err)
	}
	want := glm.NNZTotal(sample.Examples)
	if got := glm.NNZTotal(back.Examples); got != want || len(back.Examples) != len(sample.Examples) {
		return sec, 1, fmt.Errorf("data.readlibsvm: round trip gave %d rows %d nonzeros, want %d rows %d nonzeros",
			len(back.Examples), got, len(sample.Examples), want)
	}
	return sec, float64(want), nil
}

func (e *probeEnv) eval(tr *tracer, parent int) (float64, float64, error) {
	data := e.in.eval
	if data == nil {
		data = e.in.ds.Examples
	}
	ev := train.NewEvaluator("probe", e.w.name, e.obj, data, 1)
	rounds := 1 + int(30e6)/(e.in.evalNNZ*e.scale)
	sec := tr.timed("probe/train.eval", parent, func() {
		for i := 0; i < rounds; i++ {
			ev.Record(i, 0, e.locals[0])
		}
	})
	if ev.Curve.Len() != rounds {
		return sec, 1, fmt.Errorf("train.eval: %d points recorded, want %d", ev.Curve.Len(), rounds)
	}
	return sec, float64(e.in.evalNNZ * rounds), nil
}

// elemRounds sizes the dense-vector probes to about 20M coordinates.
func (e *probeEnv) elemRounds() int { return 1 + int(20e6)/(e.dim()*e.scale) }

func (e *probeEnv) addScaled(tr *tracer, parent int) (float64, float64, error) {
	dst := make([]float64, e.dim())
	rounds := e.elemRounds()
	sec := tr.timed("probe/vec.addscaled", parent, func() {
		for i := 0; i < rounds; i++ {
			vec.AddScaled(dst, e.locals[0], 0.5)
		}
	})
	return sec, float64(e.dim() * rounds), nil
}

// density is the share of coordinates one real local step changed.
func (e *probeEnv) density() float64 {
	return float64(sparse.CountDelta(e.locals[0], e.zero)) / float64(e.dim())
}

func (e *probeEnv) encode(tr *tracer, parent int) (float64, float64, error) {
	rounds := e.elemRounds()
	var enc sparse.Enc
	sec := tr.timed("probe/sparse.encode", parent, func() {
		for i := 0; i < rounds; i++ {
			enc = sparse.EncodeCopy(e.locals[0], e.zero)
		}
	})
	if enc.Len() != e.dim() {
		return sec, 1, fmt.Errorf("sparse.encode: encoded %d of %d coordinates", enc.Len(), e.dim())
	}
	return sec, float64(e.dim() * rounds), nil
}

func (e *probeEnv) decode(tr *tracer, parent int) (float64, float64, error) {
	rounds := e.elemRounds()
	enc := sparse.EncodeCopy(e.locals[0], e.zero)
	dst := make([]float64, e.dim())
	sec := tr.timed("probe/sparse.decode", parent, func() {
		for i := 0; i < rounds; i++ {
			enc.DecodeInto(dst, e.zero)
		}
	})
	for i, v := range dst {
		if math.Float64bits(v) != math.Float64bits(e.locals[0][i]) {
			return sec, 1, fmt.Errorf("sparse.decode: coordinate %d decoded to %v, want %v", i, v, e.locals[0][i])
		}
	}
	return sec, float64(e.dim() * rounds), nil
}

// desSwitch bounces one token between two processes through a pair of
// queues: every hop is one scheduled event and one process switch.
func (e *probeEnv) desSwitch(tr *tracer, parent int) (float64, float64, error) {
	n := 100000 / e.scale
	sim := des.New()
	ping, pong := des.NewQueue[int](sim, "ping"), des.NewQueue[int](sim, "pong")
	back := 0
	sim.Spawn("a", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			ping.Put(i)
			if pong.Get(p) == i {
				back++
			}
		}
	})
	sim.Spawn("b", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			pong.Put(ping.Get(p))
		}
	})
	sec := tr.timed("probe/des.switch", parent, func() { sim.Run() })
	if back != n {
		return sec, 1, fmt.Errorf("des.switch: %d of %d tokens came back", back, n)
	}
	return sec, float64(2 * n), nil
}

// desEvent has k processes each sleep m times at staggered periods, so the
// event heap holds k entries and every pop switches process.
func (e *probeEnv) desEvent(tr *tracer, parent int) (float64, float64, error) {
	k := e.w.k
	m := 200000 / (k * e.scale)
	sim := des.New()
	woke := 0
	for i := 0; i < k; i++ {
		period := 1 + float64(i)/1024
		sim.Spawn("sleeper", func(p *des.Proc) {
			for j := 0; j < m; j++ {
				p.Wait(period)
				woke++
			}
		})
	}
	var end float64
	sec := tr.timed("probe/des.event", parent, func() { end = sim.Run() })
	if want := float64(m) * (1 + float64(k-1)/1024); woke != k*m || math.Abs(end-want) > 1e-9*want {
		return sec, 1, fmt.Errorf("des.event: %d of %d wake-ups, clock %v want %v", woke, k*m, end, want)
	}
	return sec, float64(k * m), nil
}

func (e *probeEnv) desSpawn(tr *tracer, parent int) (float64, float64, error) {
	k := e.w.k
	rounds := 1 + 20000/(k*e.scale)
	sim := des.New()
	ran := 0
	sim.Spawn("parent", func(p *des.Proc) {
		joins := make([]*des.Join, k)
		for r := 0; r < rounds; r++ {
			for i := range joins {
				joins[i] = des.Fork(p, "child", func(*des.Proc) { ran++ })
			}
			for _, j := range joins {
				j.Wait(p)
			}
		}
	})
	sec := tr.timed("probe/des.spawn", parent, func() { sim.Run() })
	if ran != k*rounds {
		return sec, 1, fmt.Errorf("des.spawn: %d of %d children ran", ran, k*rounds)
	}
	return sec, float64(k * rounds), nil
}

// netRounds sizes the message probes to about 100k messages.
func (e *probeEnv) netRounds() int {
	k := e.w.k
	return 1 + 100000/(k*(k-1)*e.scale)
}

// simnetAllToAll has every node send a 64-byte message to every other node
// and receive k-1, for a number of rounds. It also returns the heap
// allocations per message.
func (e *probeEnv) simnetAllToAll(tr *tracer, parent int) (sec, messages, allocs float64, err error) {
	k, rounds := e.w.k, e.netRounds()
	sim, net, names := e.spec.BuildNet(nil)
	received := 0
	for i := 0; i < k; i++ {
		i := i
		node := net.Node(names[i])
		sim.Spawn("peer", func(p *des.Proc) {
			for r := 0; r < rounds; r++ {
				for j := 0; j < k; j++ {
					if j != i {
						node.Send(p, names[j], "probe", 64, nil)
					}
				}
				received += len(node.RecvN(p, "probe", k-1))
			}
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sec = tr.timed("probe/simnet.alltoall", parent, func() { sim.Run() })
	runtime.ReadMemStats(&after)
	want := k * (k - 1) * rounds
	if received != want || net.TotalMessages() != want {
		err = fmt.Errorf("simnet: %d sent, %d received, want %d", net.TotalMessages(), received, want)
	}
	return sec, float64(want), float64(after.Mallocs - before.Mallocs), err
}

func (e *probeEnv) engineTasks(tr *tracer, parent int) (float64, float64, error) {
	k := e.w.k
	rounds := 1 + 20000/(k*e.scale)
	sim, cl, ctx := e.spec.Build(nil)
	tasks := make([]engine.Task, k)
	for i := range tasks {
		tasks[i] = engine.Task{Exec: cl.Execs[i], Run: func(*des.Proc, *engine.Executor) (any, float64) { return nil, 0 }}
	}
	sim.Spawn("driver", func(p *des.Proc) {
		for r := 0; r < rounds; r++ {
			ctx.RunStage(p, "noop", tasks)
		}
	})
	sec := tr.timed("probe/engine.tasks", parent, func() { sim.Run() })
	ran := 0
	for _, name := range cl.Execs {
		ran += cl.Executor(name).TasksRun()
	}
	if ran != k*rounds {
		return sec, 1, fmt.Errorf("engine.tasks: %d of %d tasks ran", ran, k*rounds)
	}
	return sec, float64(k * rounds), nil
}

// stage runs body once on every executor inside one engine stage and returns
// the host seconds of the whole simulation under the named span.
func (e *probeEnv) stage(tr *tracer, parent int, span string, setup func(sim *des.Sim, cl *engine.Cluster), body func(p *des.Proc, ex *engine.Executor, cl *engine.Cluster, self int)) float64 {
	sim, cl, ctx := e.spec.Build(nil)
	if setup != nil {
		setup(sim, cl)
	}
	tasks := make([]engine.Task, e.w.k)
	for i := range tasks {
		i := i
		tasks[i] = engine.Task{Exec: cl.Execs[i], Run: func(p *des.Proc, ex *engine.Executor) (any, float64) {
			body(p, ex, cl, i)
			return nil, 0
		}}
	}
	sim.Spawn("driver", func(p *des.Proc) { ctx.RunStage(p, span, tasks) })
	return tr.timed(span, parent, func() { sim.Run() })
}

func (e *probeEnv) engineExchange(tr *tracer, parent int) (float64, float64, error) {
	k, rounds := e.w.k, e.netRounds()
	blockBytes := float64(8 * (e.dim() / k))
	names := make([]string, rounds)
	for r := range names {
		names[r] = fmt.Sprintf("x%d", r)
	}
	received := 0
	sec := e.stage(tr, parent, "probe/engine.exchange", nil, func(p *des.Proc, ex *engine.Executor, cl *engine.Cluster, self int) {
		for r := 0; r < rounds; r++ {
			out := make([]engine.Block, 0, k-1)
			for j := 0; j < k; j++ {
				if j != self {
					out = append(out, engine.Block{To: j, Bytes: blockBytes})
				}
			}
			received += len(engine.Exchange(p, ex, cl.Execs, self, names[r], out))
		}
	})
	want := k * (k - 1) * rounds
	if received != want {
		return sec, 1, fmt.Errorf("engine.exchange: %d of %d blocks received", received, want)
	}
	return sec, float64(want), nil
}

// engineTreeAgg aggregates one real local model per executor through
// MLlib's default depth-2 tree, shipping the model with every task.
func (e *probeEnv) engineTreeAgg(tr *tracer, parent int) (float64, float64, error) {
	k, dim := e.w.k, e.dim()
	rounds := 1 + 2000/(k*e.scale)
	aggs := int(math.Ceil(math.Sqrt(float64(k))))
	names := make([]string, rounds)
	for r := range names {
		names[r] = fmt.Sprintf("t%d", r)
	}
	sim, _, ctx := e.spec.Build(nil)
	var first, last float64
	sim.Spawn("driver", func(p *des.Proc) {
		for r := 0; r < rounds; r++ {
			sum := ctx.TreeAggregateVec(p, names[r], dim, aggs, float64(8*dim), func(task int) ([]float64, float64) {
				g := ctx.GetVec(dim)
				copy(g, e.locals[task])
				return g, 0
			})
			if r == 0 {
				first = sum[0]
			}
			last = sum[0]
			ctx.PutVec(sum)
		}
	})
	sec := tr.timed("probe/engine.treeagg", parent, func() { sim.Run() })
	if math.Float64bits(first) != math.Float64bits(last) {
		return sec, 1, fmt.Errorf("engine.treeagg: the same partials summed to %v and %v", first, last)
	}
	return sec, float64(rounds), nil
}

// superstepFacts are the simulated-clock facts of one AllReduce superstep.
type superstepFacts struct {
	simS, bytes float64
	dense       bool // neither sparse coding nor chunking is on: the closed forms apply
}

// allreduceSupersteps runs AverageDelta supersteps the way MLlib* does — one
// engine stage each, every executor averaging its real local model against
// the shared reference — between two barriers, so the simulated duration and
// the bytes of the collective alone can be read.
func (e *probeEnv) allreduceSupersteps(tr *tracer, parent int) (float64, float64, superstepFacts, error) {
	k, dim := e.w.k, e.dim()
	steps := 1 + 40000/(2*k*(k-1)*e.scale)
	if steps > 8 {
		steps = 8
	}
	locals := make([][]float64, k)
	for i := range locals {
		locals[i] = make([]float64, dim)
	}
	sim, cl, ctx := e.spec.Build(nil)
	enter := des.NewBarrier(sim, "enter", k)
	leave := des.NewBarrier(sim, "leave", k)
	var t0, t1, b0, b1 float64
	sim.Spawn("driver", func(p *des.Proc) {
		for s := 0; s < steps; s++ {
			s := s
			tasks := make([]engine.Task, k)
			for i := range tasks {
				i := i
				tasks[i] = engine.Task{
					Exec: cl.Execs[i],
					Pure: func() float64 { copy(locals[i], e.locals[i]); return 0 },
					Run: func(p *des.Proc, ex *engine.Executor) (any, float64) {
						enter.Arrive(p)
						if s == 0 {
							t0, b0 = p.Now(), cl.Net.TotalBytes()
						}
						allreduce.AverageDelta(p, ex, cl.Execs, i, fmt.Sprintf("s%d", s), locals[i], e.zero)
						leave.Arrive(p)
						if s == 0 && t1 == 0 {
							t1, b1 = p.Now(), cl.Net.TotalBytes()
						}
						return nil, 0
					},
				}
			}
			ctx.RunStage(p, "superstep", tasks)
		}
	})
	sec := tr.timed("probe/allreduce.superstep", parent, func() { sim.Run() })
	f := superstepFacts{simS: t1 - t0, bytes: b1 - b0, dense: !sparse.Enabled() && !allreduce.Enabled()}
	for i := 1; i < k; i++ {
		for j, v := range locals[i] {
			if math.Float64bits(v) != math.Float64bits(locals[0][j]) {
				return sec, float64(steps), f, fmt.Errorf("allreduce: executor %d coordinate %d holds %v, executor 0 %v", i, j, v, locals[0][j])
			}
		}
	}
	return sec, float64(steps), f, nil
}

// psClocks runs k workers against a fresh parameter server for a number of
// clocks. With pull set every clock is a pull followed by a push, the loop of
// the PS trainers; without, pushes only, so that the difference of the two is
// the cost of the pulls with their SSP admission.
func (e *probeEnv) psClocks(tr *tracer, parent int, pull bool) (float64, float64, error) {
	k, dim := e.w.k, e.dim()
	clocks := 1 + 400/(k*e.scale)
	staleness := 0
	for _, ts := range e.w.runs {
		if ts.staleness > staleness {
			staleness = ts.staleness
		}
	}
	sim, net, names := e.spec.BuildNet(nil)
	deploy, err := ps.New(sim, net, names, ps.Config{Dim: dim, Servers: k, Workers: k, Staleness: staleness, CombineScale: 1 / float64(k)})
	if err != nil {
		return 0, 1, err
	}
	pulled := 0
	for r := 0; r < k; r++ {
		r := r
		sim.Spawn("worker", func(p *des.Proc) {
			for t := 1; t <= clocks; t++ {
				if pull {
					if len(deploy.Pull(p, names[r], r, t-1)) == dim {
						pulled++
					}
				}
				deploy.Push(p, names[r], r, t, e.locals[r])
			}
		})
	}
	span := "probe/ps.push"
	if pull {
		span = "probe/ps.pullpush"
	}
	sec := tr.timed(span, parent, func() { sim.Run() })
	if pull && pulled != k*clocks {
		return sec, 1, fmt.Errorf("ps: %d of %d pulls returned a full model", pulled, k*clocks)
	}
	if want := k * k * clocks; !pull && net.TotalMessages() != want {
		return sec, 1, fmt.Errorf("ps: %d push messages, want %d", net.TotalMessages(), want)
	}
	return sec, float64(k * clocks), nil
}

func (e *probeEnv) parGo(tr *tracer, parent int) (float64, float64, error) {
	n := 200000 / e.scale
	total := 0.0
	sec := tr.timed("probe/par.go", parent, func() {
		for i := 0; i < n; i++ {
			total += par.Go(func() float64 { return 1 }).Join()
		}
	})
	if int(total) != n {
		return sec, 1, fmt.Errorf("par: %v of %d closures returned", total, n)
	}
	return sec, float64(n), nil
}

// superstepClosedForm is the simulated duration of one dense, unchunked
// AverageDelta that every executor enters at the same instant, on a cluster
// whose nodes all have the same links and whose task compute is not inflated;
// ok is false on any other cluster. With p = (8m/k + 64)/B the time one
// partition message occupies a NIC:
//
//	(3k-2)·p + 2·latency + 2·(k-1)·(m/k)/rate
//
// The bandwidth-optimal schedule would pay 2(k-1)·p. The simulated one pays k
// more because every executor visits its peers in ascending order: all
// senders hit the same receiver at once, its in-NIC serializes them store and
// forward, and the skew the first round leaves (executor r finishes r·p
// late) carries into the second. The last two terms are one propagation
// latency per round and the fold and install charges of k-1 partitions each.
func (e *probeEnv) superstepClosedForm() (seconds float64, ok bool) {
	s := e.spec
	if s.HeteroSpread != 0 || s.Engine.StragglerFactor != 0 {
		return 0, false
	}
	k, part := float64(e.w.k), float64(e.dim())/float64(e.w.k)
	p := (8*part + 64) / s.Bandwidth
	return (3*k-2)*p + 2*s.Latency + 2*(k-1)*part/s.ComputeRate, true
}
