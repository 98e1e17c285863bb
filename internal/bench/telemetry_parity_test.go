package bench

// Telemetry parity: the structured event log (internal/obs) observes the
// simulation but never charges it, so recording it must not move a single
// bit of any result — final model, counters, convergence curve, simulated
// time, or wire bytes. Every row of one table of training configurations
// (the collective parity table's trainer rows, plus a sparse-exchange row)
// trains twice, with no sink and into a private one, and must agree bit for
// bit (unlike sparse parity, SimTime and TotalBytes are part of the contract
// here: observation must not shift the virtual clock by one ulp). The graph
// built from the recorded log must be well-formed, its critical-path
// decomposition must telescope to the makespan, and the what-if re-timer
// must reproduce the recorded schedule bit for bit under the identity
// scenario.
//
// The attribution tests pin the paper's diagnosis end to end: replaying an
// MLlib run's event log must attribute the step to the driver (the B1/B2
// single-update, driver-centric bottlenecks), and an MLlib* run must not be
// driver-bound. The what-if sweeps close the loop against reality: the chunk
// predictions from a sequential trace are checked against actual pipelined
// reruns, within a pinned tolerance. Committed sample logs
// (testdata/obs_events_*.jsonl) and golden attribution, critical-path and
// what-if reports keep the output byte-stable; regenerate them with
//
//	go test ./internal/bench -run 'TestObsGoldenAttribution|TestCritPathGolden' -update

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mllibstar/internal/causal"
	"mllibstar/internal/clusters"
	"mllibstar/internal/obs"
	"mllibstar/internal/par"
	"mllibstar/internal/train"
)

var updateObs = flag.Bool("update", false, "regenerate the committed obs sample logs and golden reports")

// requireObsIdentical is requireSameResult plus the byte counter: telemetry
// must not change what the network charged either.
func requireObsIdentical(t *testing.T, system string, off, on *train.Result) {
	t.Helper()
	requireSameResult(t, system, off, on)
	if math.Float64bits(off.TotalBytes) != math.Float64bits(on.TotalBytes) {
		t.Errorf("%s: TotalBytes %v (no sink) != %v (sink)", system, off.TotalBytes, on.TotalBytes)
	}
}

// runSinkTable trains each row twice — with no sink and into a private one —
// and requires bitwise-equal results and charged bytes, a non-empty log and
// a causal graph that passes requireCausalGraph. It returns the recorded
// logs by row name. The offload pool is forced on at any CPU count: the sink
// takes no lock, so under `go test -race` a recording from a pool closure
// is a data race whether or not the machine has a second CPU.
func runSinkTable(t *testing.T, w *workload, rows []trainerRow) map[string][]obs.Event {
	par.ForceEnable(4)
	t.Cleanup(func() { par.Configure(true, 0) })
	logs := map[string][]obs.Event{}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			off := row.run(t, w, nil)
			sink := obs.NewSink()
			on := row.run(t, w, sink)
			requireObsIdentical(t, row.name, off, on)
			events := sink.Events()
			if len(events) == 0 {
				t.Fatalf("%s: the run recorded no events", row.name)
			}
			requireCausalGraph(t, row.name, events)
			logs[row.name] = events
		})
	}
	return logs
}

// sinkTableWorkload is the avazu test workload every row but the sparse one
// trains on.
func sinkTableWorkload(t *testing.T) *workload {
	t.Helper()
	w, err := loadWorkload("avazu", RunConfig{Scale: 20000, EvalCap: 200})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// The tests below are views of the table.

func TestObsBitIdentityTrainers(t *testing.T) {
	runSinkTable(t, sinkTableWorkload(t), append(slices.Clone(rowsMLlibStar), rowsNoCollective...))
}

func TestObsBitIdentityLBFGS(t *testing.T) {
	runSinkTable(t, sinkTableWorkload(t), []trainerRow{rowLBFGSTree, rowLBFGSStar})
}

func TestObsBitIdentitySVRG(t *testing.T) {
	runSinkTable(t, sinkTableWorkload(t), []trainerRow{rowSVRG})
}

// TestObsBitIdentitySparse crosses the switches: telemetry must stay
// invisible when the sparse exchange (which re-kinds some spans and tags
// encodings on the wire) is active too. The high-dimensional workload is the
// one where the encoder actually picks the sparse form (the preset workloads
// are model-dense, so their deltas stay dense-coded).
func TestObsBitIdentitySparse(t *testing.T) {
	row := trainerRow{name: "MLlib* sparse", run: func(t *testing.T, w *workload, sink *obs.Sink) (res *train.Result) {
		prm := tuned(sysMLlibStar, w.ds.Name, 0.1)
		prm.MaxSteps = 6
		runWithSparse(true, func() {
			var err error
			if res, err = runSystem(sysMLlibStar, clusters.Test(4), w, prm, sink); err != nil {
				t.Fatal(err)
			}
		})
		return res
	}}
	events := runSinkTable(t, highDimWorkload(), []trainerRow{row})[row.name]
	if !slices.ContainsFunc(events, func(e obs.Event) bool { return e.Enc == obs.EncSparse }) {
		t.Error("sparse run logged no sparse-encoded messages")
	}
}

// TestCritPathBitIdentity is the view of every avazu row.
func TestCritPathBitIdentity(t *testing.T) {
	runSinkTable(t, sinkTableWorkload(t), rowsAll)
}

// sampleLog runs the fixed attribution workload for one system and returns
// the sink that recorded it: avazu at small scale, l2=0.1, 8 steps, 4
// workers — the same shape as Figure 4's regularized comparison. The
// committed logs also feed the critical-path and what-if goldens;
// attribution ignores the causal fields.
func sampleLog(t *testing.T, system string) *obs.Sink {
	t.Helper()
	w, err := loadWorkload("avazu", RunConfig{Scale: 20000, EvalCap: 200})
	if err != nil {
		t.Fatal(err)
	}
	prm := tuned(system, "avazu", 0.1)
	prm.MaxSteps = 8
	s := obs.NewSink()
	if _, err := runSystem(system, clusters.Test(4), w, prm, s); err != nil {
		t.Fatal(err)
	}
	return s
}

// sampleEvents is sampleLog's event log as a slice.
func sampleEvents(t *testing.T, system string) []obs.Event {
	t.Helper()
	return sampleLog(t, system).Events()
}

// TestSampleLogsRegenerate holds the committed sample logs to a fresh run
// without -update: the two sample configurations, written through
// Sink.WriteJSONL, must equal testdata/obs_events_*.jsonl byte for byte. The
// golden tests below only replay the committed files, so without this a
// change to what is recorded or how it is encoded would stay invisible until
// somebody ran -update and read the diff.
func TestSampleLogsRegenerate(t *testing.T) {
	for _, tc := range []struct {
		system string
		slug   string
	}{
		{sysMLlib, "mllib"},
		{sysMLlibStar, "mllibstar"},
	} {
		var got bytes.Buffer
		if err := sampleLog(t, tc.system).WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "obs_events_"+tc.slug+".jsonl")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to generate)", err)
		}
		if bytes.Equal(got.Bytes(), want) {
			continue
		}
		gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("%s: fresh log differs from %s at line %d:\n got %s\nwant %s",
					tc.system, path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("%s: fresh log has %d lines, %s has %d", tc.system, len(gotLines), path, len(wantLines))
	}
}

// TestObsAttributionClassification pins the paper's diagnosis on fresh
// runs: MLlib's per-step critical path is dominated by the driver (B1/B2),
// MLlib*'s is not — its driver share collapses and the step goes to the
// workers' compute and the shuffle exchange.
func TestObsAttributionClassification(t *testing.T) {
	mllib := obs.Attribute(sampleEvents(t, sysMLlib))
	if mllib.DominantCost != "driver" {
		t.Errorf("MLlib: dominant cost %q, want driver\n%s", mllib.DominantCost, mllib.Text())
	}
	if !strings.Contains(mllib.Classification, "B1+B2") {
		t.Errorf("MLlib: classification %q, want a B1+B2 diagnosis", mllib.Classification)
	}

	star := obs.Attribute(sampleEvents(t, sysMLlibStar))
	if star.DominantCost == "driver" {
		t.Errorf("MLlib*: still driver-dominant\n%s", star.Text())
	}
	if star.DriverShare >= mllib.DriverShare {
		t.Errorf("MLlib*: driver share %.3f did not drop below MLlib's %.3f",
			star.DriverShare, mllib.DriverShare)
	}
	// The paradigm shift in update granularity is what the attribution's
	// update-pattern field keys the B1 diagnosis on.
	if mllib.UpdatePattern != "single-update" {
		t.Errorf("MLlib: update pattern %q, want single-update", mllib.UpdatePattern)
	}
	if star.UpdatePattern != "many-local-updates" {
		t.Errorf("MLlib*: update pattern %q, want many-local-updates", star.UpdatePattern)
	}
}

// TestObsGoldenAttribution replays the committed sample logs and requires
// the attribution reports to match their goldens byte for byte. -update
// regenerates both from a fresh deterministic run, so a legitimate engine
// change shows up as a reviewable diff in the committed artifacts.
func TestObsGoldenAttribution(t *testing.T) {
	for _, tc := range []struct {
		system string
		slug   string
	}{
		{sysMLlib, "mllib"},
		{sysMLlibStar, "mllibstar"},
	} {
		eventsPath := filepath.Join("testdata", "obs_events_"+tc.slug+".jsonl")
		goldenPath := filepath.Join("testdata", "obs_report_"+tc.slug+".golden")
		if *updateObs {
			events := sampleEvents(t, tc.system)
			var buf bytes.Buffer
			if err := obs.WriteJSONL(&buf, events); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(eventsPath, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			report := obs.Attribute(events).Text()
			if err := os.WriteFile(goldenPath, []byte(report), 0o644); err != nil {
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
		got := obs.Attribute(events).Text()
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (run with -update to generate)", err)
		}
		if got != string(want) {
			t.Errorf("%s: attribution report drifted from %s:\n--- got ---\n%s--- want ---\n%s",
				tc.system, goldenPath, got, want)
		}
	}
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
	run := func() []obs.Event {
		sink := obs.NewSink()
		if _, err := runSystem(sysMLlibStar, clusters.CommBound(4), w, prm, sink); err != nil {
			t.Fatal(err)
		}
		return sink.Events()
	}
	var seq []obs.Event
	withCollective(colOff, func() { seq = run() })
	g := requireCausalGraph(t, "MLlib* sequential", seq)
	requirePredictionGolden(t, "whatif_chunk_sweep.golden", g, false)

	for _, C := range []int{2, 4, 8} {
		pred := causal.Retime(g, causal.Scenario{Name: fmt.Sprintf("chunks=%d", C), Chunks: C})
		if pred.Err != "" {
			t.Fatalf("chunks=%d: %s", C, pred.Err)
		}
		var act []obs.Event
		withCollective(collectiveSetting{chunks: C}, func() { act = run() })
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
	run := func() []obs.Event {
		sink := obs.NewSink()
		runOverlapGD(clusters.CommBound(4), ds, 8, sink)
		return sink.Events()
	}
	var seq []obs.Event
	withCollective(colOff, func() { seq = run() })
	g := requireCausalGraph(t, "GD sequential", seq)
	requirePredictionGolden(t, "whatif_overlap_sweep.golden", g, true)

	for _, C := range []int{1, 4, 8} {
		pred := causal.Retime(g, causal.Scenario{Name: fmt.Sprintf("overlap C=%d", C), Overlap: true, Chunks: C})
		if pred.Err != "" {
			t.Fatalf("overlap C=%d: %s", C, pred.Err)
		}
		var act []obs.Event
		withCollective(collectiveSetting{chunks: C, overlap: true}, func() { act = run() })
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
