package bench

// Causal trace graph validation: recording the causally-enriched event log
// (obs.EnableCausal, the -causal flag) must not move a single bit of any
// result — the enrichment rides the same observe-never-charge path as plain
// telemetry — and the graph built from a live log must be well-formed, its
// critical-path decomposition must telescope to the makespan, and the
// what-if re-timer must reproduce the recorded schedule bit-for-bit under
// the identity scenario. The what-if sweeps close the loop against reality:
// the chunk predictions from a sequential trace are checked against actual
// pipelined reruns, within a pinned tolerance.
//
// The golden critical-path and what-if reports ride the committed Fig.4
// sample logs (testdata/obs_events_*.jsonl); regenerate everything with
//
//	go test ./internal/bench -run 'TestObsGoldenAttribution|TestCritPathGolden' -update

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mllibstar/internal/causal"
	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/glm"
	"mllibstar/internal/lbfgs"
	"mllibstar/internal/obs"
	"mllibstar/internal/train"
)

// runWithCausal is runWithObs with the causal enrichment switched on: same
// sink, same restore, plus the per-event process/message stamps.
func runWithCausal(on bool, fn func()) []obs.Event {
	if !on {
		fn()
		return nil
	}
	s := obs.EnableCausal()
	defer obs.Disable()
	fn()
	return s.Events()
}

// requireCausalGraph builds and validates the graph from a live log and pins
// the package's two exactness contracts: the critical-path decomposition
// telescopes (Busy + Latency + Wait = Makespan up to float association) and
// the identity re-timing reproduces the recorded makespan bit-for-bit.
func requireCausalGraph(t *testing.T, system string, events []obs.Event) *causal.Graph {
	t.Helper()
	g, err := causal.Analyze(events)
	if err != nil {
		t.Fatalf("%s: %v", system, err)
	}
	mk := g.Makespan()
	p := causal.CriticalPath(g)
	if math.Float64bits(p.Makespan) != math.Float64bits(mk) {
		t.Errorf("%s: critical path makespan %v != graph makespan %v", system, p.Makespan, mk)
	}
	if sum := p.Busy + p.Latency + p.Wait; math.Abs(sum-mk) > 1e-6*math.Max(1, mk) {
		t.Errorf("%s: path decomposition %g (busy %g + latency %g + wait %g) does not telescope to makespan %g",
			system, sum, p.Busy, p.Latency, p.Wait, mk)
	}
	id := causal.Retime(g, causal.Scenario{Name: "identity"})
	if id.Err != "" {
		t.Fatalf("%s: identity retime failed: %s", system, id.Err)
	}
	if math.Float64bits(id.Makespan) != math.Float64bits(mk) {
		t.Errorf("%s: identity retime makespan %v != recorded %v", system, id.Makespan, mk)
	}
	return g
}

// timeline is the gantt CSV of an event log with the message tags blanked:
// a causal sink keeps each message's tag in the note column, a plain sink
// does not, and everything else must agree.
func timeline(events []obs.Event) string {
	g := obs.GanttFromEvents(events)
	for i := range g.Spans {
		if g.Spans[i].Dir != "" {
			g.Spans[i].Note = ""
		}
	}
	return g.CSV()
}

// TestCritPathBitIdentity runs every trainer config of the parity matrix
// twice — into a private plain sink, and into an installed causal one — and
// requires full bitwise equality of the results, the charged bytes, and the
// gantt timeline; then validates the graph built from the causal run's log.
// Tracing is observation only: it must not shift the virtual clock by one
// ulp.
func TestCritPathBitIdentity(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	type runner struct {
		name string
		run  func(sink *obs.Sink) *train.Result
	}
	var cases []runner
	for _, tc := range []struct {
		system string
		l2     float64
	}{
		{sysMLlib, 0.1},
		{sysMLlib, 0},
		{sysMAvg, 0.1},
		{sysMLlibStar, 0.1},
		{sysMLlibStar, 0},
		{sysPetuumStar, 0.1},
		{sysPetuumStar, 0},
		{sysAngel, 0.1},
	} {
		system, l2 := tc.system, tc.l2
		prm := tuned(system, "avazu", l2)
		prm.MaxSteps = 8
		cases = append(cases, runner{
			name: fmt.Sprintf("%s/l2=%g", system, l2),
			run: func(sink *obs.Sink) *train.Result {
				res, err := runSystem(system, clusters.Test(4), w, prm, sink)
				if err != nil {
					t.Fatal(err)
				}
				return res
			},
		})
	}
	for _, allReduce := range []bool{false, true} {
		allReduce := allReduce
		name := "LBFGS-tree"
		if allReduce {
			name = "LBFGS-allreduce"
		}
		cases = append(cases, runner{
			name: name,
			run: func(sink *obs.Sink) *train.Result {
				_, _, ctx := clusters.Test(4).Build(sink)
				parts := w.ds.Partition(4, 3)
				res, err := lbfgs.TrainDistributed(ctx, parts, w.ds.Features, lbfgs.DistConfig{
					Objective: glm.LogReg(0.01),
					MaxIters:  6,
					AllReduce: allReduce,
				}, w.eval, w.ds.Name)
				if err != nil {
					t.Fatal(err)
				}
				return res
			},
		})
	}
	cases = append(cases, runner{
		name: "MLlib*-SVRG",
		run: func(sink *obs.Sink) *train.Result {
			_, _, ctx := clusters.Test(4).Build(sink)
			parts := w.ds.Partition(4, 3)
			prm := train.Params{Objective: glm.LogReg(0.01), Eta: 0.1, MaxSteps: 5, EvalEvery: 1, Seed: 7}
			res, err := core.TrainSVRG(ctx, parts, w.ds.Features, prm, w.eval, w.ds.Name)
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
	})

	for _, c := range cases {
		var off, on *train.Result
		plain := obs.NewSink()
		runWithCausal(false, func() { off = c.run(plain) })
		events := runWithCausal(true, func() { on = c.run(obs.Active()) })
		requireObsIdentical(t, c.name, off, on)
		if timeline(plain.Events()) != timeline(events) {
			t.Errorf("%s: gantt timeline differs between plain and causal runs", c.name)
		}
		if len(events) == 0 {
			t.Fatalf("%s: causal run recorded no events", c.name)
		}
		requireCausalGraph(t, c.name, events)
	}
}

// TestCritPathGolden replays the committed Fig.4 sample logs through the
// critical-path extractor and the standard what-if set and requires the
// reports to match their goldens byte for byte. -update regenerates the
// sample logs (identically to TestObsGoldenAttribution -update, which shares
// them) and both reports.
func TestCritPathGolden(t *testing.T) {
	for _, tc := range []struct {
		system string
		slug   string
	}{
		{sysMLlib, "mllib"},
		{sysMLlibStar, "mllibstar"},
	} {
		eventsPath := filepath.Join("testdata", "obs_events_"+tc.slug+".jsonl")
		critGolden := filepath.Join("testdata", "critpath_"+tc.slug+".golden")
		whatifGolden := filepath.Join("testdata", "whatif_"+tc.slug+".golden")
		if *updateObs {
			events := sampleEvents(t, tc.system)
			var buf bytes.Buffer
			if err := obs.WriteJSONL(&buf, events); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(eventsPath, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := os.Open(eventsPath)
		if err != nil {
			t.Fatalf("%v (run with -update to generate)", err)
		}
		events, err := obs.ReadJSONL(raw)
		raw.Close()
		if err != nil {
			t.Fatal(err)
		}
		g := requireCausalGraph(t, tc.system, events)
		crit := causal.CriticalPath(g).Text(20)
		whatif := causal.WhatIfText(g, causal.WhatIf(g, causal.StandardScenarios(g)))
		if *updateObs {
			if err := os.WriteFile(critGolden, []byte(crit), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(whatifGolden, []byte(whatif), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, chk := range []struct {
			path string
			got  string
		}{{critGolden, crit}, {whatifGolden, whatif}} {
			want, err := os.ReadFile(chk.path)
			if err != nil {
				t.Fatalf("%v (run with -update to generate)", err)
			}
			if chk.got != string(want) {
				t.Errorf("%s: report drifted from %s:\n--- got ---\n%s--- want ---\n%s",
					tc.system, chk.path, chk.got, want)
			}
		}
	}
}

// TestCritPathDiagnosis pins the paper's diagnosis at message granularity on
// the committed logs: MLlib's critical path runs through the driver (B1/B2
// incast and single-threaded update), MLlib*'s driver share collapses and
// its path is compute/shuffle-bound.
func TestCritPathDiagnosis(t *testing.T) {
	load := func(slug string) *causal.Path {
		raw, err := os.Open(filepath.Join("testdata", "obs_events_"+slug+".jsonl"))
		if err != nil {
			t.Fatalf("%v (run with -update to generate)", err)
		}
		defer raw.Close()
		events, err := obs.ReadJSONL(raw)
		if err != nil {
			t.Fatal(err)
		}
		g, err := causal.Analyze(events)
		if err != nil {
			t.Fatal(err)
		}
		return causal.CriticalPath(g)
	}
	mllib := load("mllib")
	mllibPhase, mllibDriver := mllib.Dominant()
	if mllibDriver < 0.4 {
		t.Errorf("MLlib: driver share of the critical path %.3f, want > 0.4\n%s", mllibDriver, mllib.Text(10))
	}
	switch mllibPhase {
	case "broadcast", "tree-agg", "update":
	default:
		t.Errorf("MLlib: dominant path phase %q, want a driver-centric phase\n%s", mllibPhase, mllib.Text(10))
	}
	star := load("mllibstar")
	starPhase, starDriver := star.Dominant()
	if starDriver >= mllibDriver {
		t.Errorf("MLlib*: driver share %.3f did not drop below MLlib's %.3f", starDriver, mllibDriver)
	}
	switch starPhase {
	case "compute", "reduce-scatter", "allgather", "aggregate", "update":
	default:
		t.Errorf("MLlib*: dominant path phase %q, want compute- or shuffle-bound\n%s", starPhase, star.Text(10))
	}
}

// requirePredictionGolden holds the chunks=C (or, with overlap, the
// overlap C=C) predictions on a sweep's sequential log to testdata/file,
// Float64bits for Float64bits: the sweeps' tolerances catch a re-timer that
// drifts from the simulator, this catches any change to what it predicts.
// -update rewrites the file.
func requirePredictionGolden(t *testing.T, file string, g *causal.Graph, overlap bool) {
	t.Helper()
	var got bytes.Buffer
	for _, C := range []int{2, 3, 4, 8} {
		sc := causal.Scenario{Name: fmt.Sprintf("chunks=%d", C), Chunks: C, Overlap: overlap}
		if overlap {
			sc.Name = fmt.Sprintf("overlap C=%d", C)
		}
		pred := causal.Retime(g, sc)
		if pred.Err != "" {
			t.Fatalf("%s: %s", sc.Name, pred.Err)
		}
		fmt.Fprintf(&got, "%s %016x %v\n", sc.Name, math.Float64bits(pred.Makespan), pred.Makespan)
	}
	path := filepath.Join("testdata", file)
	if *updateObs {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("predictions drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got.Bytes(), want)
	}
}

// chunkSweepTol is the pinned relative tolerance for the chunk what-if: the
// re-timer lowers the plan the simulator itself executes (allreduce.Plan),
// so the prediction is near-exact — the slack covers only encoding-boundary
// effects the transform cannot see from a dense sequential trace.
const chunkSweepTol = 0.02

// TestWhatIfChunkSweep records ONE sequential high-dimensional MLlib* run
// and predicts the pipelined makespan for chunk counts 2..8 from its trace
// alone, then actually reruns the simulator at each chunk count and requires
// the prediction to land within the pinned tolerance of reality.
func TestWhatIfChunkSweep(t *testing.T) {
	w := highDimWorkload()
	prm := tuned(sysMLlibStar, "avazu", 0.1)
	prm.MaxSteps = 4
	run := func() {
		if _, err := runSystem(sysMLlibStar, clusters.CommBound(4), w, prm, obs.Active()); err != nil {
			t.Fatal(err)
		}
	}
	var seq []obs.Event
	withCollective(colOff, func() { seq = runWithCausal(true, run) })
	g := requireCausalGraph(t, "MLlib* sequential", seq)
	requirePredictionGolden(t, "whatif_chunk_sweep.golden", g, false)

	for _, C := range []int{2, 4, 8} {
		pred := causal.Retime(g, causal.Scenario{Name: fmt.Sprintf("chunks=%d", C), Chunks: C})
		if pred.Err != "" {
			t.Fatalf("chunks=%d: %s", C, pred.Err)
		}
		var act []obs.Event
		withCollective(collectiveSetting{chunks: C}, func() { act = runWithCausal(true, run) })
		ag := requireCausalGraph(t, fmt.Sprintf("MLlib* chunks=%d", C), act)
		actual := ag.Makespan()
		rel := math.Abs(pred.Makespan-actual) / actual
		t.Logf("chunks=%d: predicted %.6fs actual %.6fs (rel err %.4f%%)", C, pred.Makespan, actual, 100*rel)
		if rel > chunkSweepTol {
			t.Errorf("chunks=%d: predicted makespan %.6fs vs actual %.6fs — rel err %.4f%% exceeds %.1f%%",
				C, pred.Makespan, actual, 100*rel, 100*chunkSweepTol)
		}
		if pred.Makespan >= g.Makespan() {
			t.Errorf("chunks=%d: prediction %.6fs not below sequential %.6fs", C, pred.Makespan, g.Makespan())
		}
	}
}

// overlapSweepTol is the pinned relative tolerance for the overlap what-if.
// The rebuild is near-exact; the residual it covers is the production
// apportionment — the trace shows one gradient charge per superstep and the
// transform splits its streaming half across feature blocks by coordinate
// width, while the rerun charges each block by its nonzero count
// (data.GradStream.Work), which the zipf-skewed dataset distributes
// unevenly. Measured error on this workload is under 0.1%.
const overlapSweepTol = 0.02

// TestWhatIfOverlapSweep records ONE non-overlapped distributed-GD run on
// the comm-bound cluster and predicts the fully overlapped makespan — pass-1
// split, streamed feature blocks, route-ordered chunk sends — from its trace
// alone, then actually reruns the simulator under -overlap at each chunk
// count and requires the prediction to land within the pinned tolerance —
// exactly at one chunk, where overlap cannot engage.
func TestWhatIfOverlapSweep(t *testing.T) {
	ds := overlapDataset()
	run := func() { runOverlapGD(clusters.CommBound(4), ds, 8) }
	var seq []obs.Event
	withCollective(colOff, func() { seq = runWithCausal(true, run) })
	g := requireCausalGraph(t, "GD sequential", seq)
	requirePredictionGolden(t, "whatif_overlap_sweep.golden", g, true)

	for _, C := range []int{1, 4, 8} {
		pred := causal.Retime(g, causal.Scenario{Name: fmt.Sprintf("overlap C=%d", C), Overlap: true, Chunks: C})
		if pred.Err != "" {
			t.Fatalf("overlap C=%d: %s", C, pred.Err)
		}
		var act []obs.Event
		withCollective(collectiveSetting{chunks: C, overlap: true}, func() { act = runWithCausal(true, run) })
		ag := requireCausalGraph(t, fmt.Sprintf("GD overlap C=%d", C), act)
		actual := ag.Makespan()
		rel := math.Abs(pred.Makespan-actual) / actual
		t.Logf("overlap C=%d: predicted %.6fs actual %.6fs (rel err %.4f%%)", C, pred.Makespan, actual, 100*rel)
		if C == 1 {
			// One chunk is the sequential plan: overlap cannot engage, and
			// the prediction is the recorded makespan — which the rerun is.
			if math.Float64bits(pred.Makespan) != math.Float64bits(actual) || math.Float64bits(actual) != math.Float64bits(g.Makespan()) {
				t.Errorf("overlap C=1: predicted %v, rerun %v, recorded %v — want all three equal", pred.Makespan, actual, g.Makespan())
			}
			continue
		}
		if rel > overlapSweepTol {
			t.Errorf("overlap C=%d: predicted makespan %.6fs vs actual %.6fs — rel err %.4f%% exceeds %.1f%%",
				C, pred.Makespan, actual, 100*rel, 100*overlapSweepTol)
		}
		if pred.Makespan >= g.Makespan() {
			t.Errorf("overlap C=%d: prediction %.6fs not below sequential %.6fs", C, pred.Makespan, g.Makespan())
		}
	}
}
