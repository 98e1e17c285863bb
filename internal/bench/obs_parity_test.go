package bench

// Telemetry parity: the structured event log (internal/obs) observes the
// simulation but never charges it, so enabling it must not move a single
// bit of any result — final model, counters, convergence curve, simulated
// time, or wire bytes. Each test runs the same training twice, obs off and
// obs on, over the same config matrix as the sparse parity suite, and
// requires full bitwise equality (unlike sparse parity, SimTime and
// TotalBytes are part of the contract here: observation must not shift the
// virtual clock).
//
// The attribution tests pin the paper's diagnosis end to end: replaying an
// MLlib run's event log must attribute the step to the driver (the B1/B2
// single-update, driver-centric bottlenecks), and an MLlib* run must not be
// driver-bound. A committed sample log and golden report keep the
// attribution output byte-stable; regenerate both with
//
//	go test ./internal/bench -run TestObsGoldenAttribution -update

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/core"
	"mllibstar/internal/glm"
	"mllibstar/internal/lbfgs"
	"mllibstar/internal/obs"
	"mllibstar/internal/train"
)

var updateObs = flag.Bool("update", false, "regenerate the committed obs sample logs and golden reports")

// runWithObs runs fn with the telemetry sink enabled or disabled, restoring
// the default (disabled) afterwards, and returns the recorded events.
func runWithObs(on bool, fn func()) []obs.Event {
	if !on {
		fn()
		return nil
	}
	s := obs.Enable()
	defer obs.Disable()
	fn()
	return s.Events()
}

// requireObsIdentical is requireSameResult plus the byte counter: telemetry
// must not change what the network charged either.
func requireObsIdentical(t *testing.T, system string, off, on *train.Result) {
	t.Helper()
	requireSameResult(t, system, off, on)
	if math.Float64bits(off.TotalBytes) != math.Float64bits(on.TotalBytes) {
		t.Errorf("%s: TotalBytes %v (obs off) != %v (obs on)", system, off.TotalBytes, on.TotalBytes)
	}
}

func TestObsBitIdentityTrainers(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
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
		prm := tuned(tc.system, "avazu", tc.l2)
		prm.MaxSteps = 8
		run := func() *train.Result {
			res, err := runSystem(tc.system, clusters.Test(4), w, prm, obs.Active())
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		var off, on *train.Result
		runWithObs(false, func() { off = run() })
		events := runWithObs(true, func() { on = run() })
		requireObsIdentical(t, tc.system, off, on)
		if len(events) == 0 {
			t.Errorf("%s: obs-on run recorded no events", tc.system)
		}
	}
}

func TestObsBitIdentityLBFGS(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, allReduce := range []bool{false, true} {
		run := func() *train.Result {
			_, _, ctx := clusters.Test(4).Build(obs.Active())
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
		}
		var off, on *train.Result
		runWithObs(false, func() { off = run() })
		runWithObs(true, func() { on = run() })
		name := "LBFGS-tree"
		if allReduce {
			name = "LBFGS-allreduce"
		}
		requireObsIdentical(t, name, off, on)
	}
}

func TestObsBitIdentitySVRG(t *testing.T) {
	cfg := RunConfig{Scale: 20000, EvalCap: 200}
	w, err := loadWorkload("avazu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	prm := train.Params{Objective: glm.LogReg(0.01), Eta: 0.1, MaxSteps: 5, EvalEvery: 1, Seed: 7}
	run := func() *train.Result {
		_, _, ctx := clusters.Test(4).Build(obs.Active())
		parts := w.ds.Partition(4, 3)
		res, err := core.TrainSVRG(ctx, parts, w.ds.Features, prm, w.eval, w.ds.Name)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var off, on *train.Result
	runWithObs(false, func() { off = run() })
	runWithObs(true, func() { on = run() })
	requireObsIdentical(t, "MLlib*-SVRG", off, on)
}

// TestObsBitIdentitySparse crosses the switches: telemetry must stay
// invisible when the sparse exchange (which re-kinds some trace spans and
// tags encodings on the wire) is active too. The high-dimensional workload
// is the one where the encoder actually picks the sparse form (the preset
// workloads are model-dense, so their deltas stay dense-coded).
func TestObsBitIdentitySparse(t *testing.T) {
	w := highDimWorkload()
	prm := tuned(sysMLlibStar, w.ds.Name, 0.1)
	prm.MaxSteps = 6
	run := func() *train.Result {
		res, err := runSystem(sysMLlibStar, clusters.Test(4), w, prm, obs.Active())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var off, on *train.Result
	var events []obs.Event
	runWithSparse(true, func() {
		runWithObs(false, func() { off = run() })
		events = runWithObs(true, func() { on = run() })
	})
	requireObsIdentical(t, "MLlib* sparse", off, on)
	var sawSparse bool
	for _, e := range events {
		if e.Enc == obs.EncSparse {
			sawSparse = true
			break
		}
	}
	if !sawSparse {
		t.Error("sparse run logged no sparse-encoded messages")
	}
}

// sampleLog runs the fixed attribution workload for one system and returns
// the sink that recorded it: avazu at small scale, l2=0.1, 8 steps, 4
// workers — the same shape as Figure 4's regularized comparison. Recorded
// with causal enrichment so the committed logs also feed the critical-path
// and what-if goldens; attribution ignores the extra fields.
func sampleLog(t *testing.T, system string) *obs.Sink {
	t.Helper()
	w, err := loadWorkload("avazu", RunConfig{Scale: 20000, EvalCap: 200})
	if err != nil {
		t.Fatal(err)
	}
	prm := tuned(system, "avazu", 0.1)
	prm.MaxSteps = 8
	s := obs.EnableCausal()
	defer obs.Disable()
	if _, err := runSystem(system, clusters.Test(4), w, prm, obs.Active()); err != nil {
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
