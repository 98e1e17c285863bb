package mllibstar

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func toyDataset() *Dataset {
	return GenerateDataset("toy", 800, 100, 8, 11)
}

func TestTrainDefaultsToMLlibStar(t *testing.T) {
	res, err := Train(toyDataset(), Config{MaxSteps: 10, Eta: 0.3, Decay: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommSteps != 10 || res.Model == nil || res.Curve.System != "MLlib*" {
		t.Errorf("res = %+v", res)
	}
	if res.Curve.Best() >= res.Curve.Points[0].Objective {
		t.Error("no training progress")
	}
}

func TestTrainEverySystem(t *testing.T) {
	ds := toyDataset()
	for _, sys := range Systems() {
		sys := sys
		t.Run(string(sys), func(t *testing.T) {
			loss := "hinge"
			if sys == LBFGS || sys == LBFGSStar || sys == MLlibStarSVRG {
				loss = "logistic" // these optimizers need a differentiable loss
			}
			res, err := Train(ds, Config{
				System: sys, Cluster: Cluster1(4), Loss: loss,
				Eta: 0.2, Decay: true, BatchFraction: 0.2,
				MaxSteps: 15, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Curve.Len() == 0 || res.SimTime <= 0 {
				t.Errorf("empty result: %+v", res)
			}
			if got := res.Curve.System; got != string(sys) {
				t.Errorf("curve system = %q, want %q", got, sys)
			}
		})
	}
}

func TestModelPredictAndAccuracy(t *testing.T) {
	ds := toyDataset()
	res, err := Train(ds, Config{MaxSteps: 30, Eta: 0.3, Decay: true})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Model.Accuracy(ds.Examples); acc < 0.8 {
		t.Errorf("accuracy = %g, want > 0.8", acc)
	}
	e := ds.Examples[0]
	if c := res.Model.Classify(e); c != 1 && c != -1 {
		t.Errorf("classify = %g", c)
	}
}

func TestLogisticAndRegularizers(t *testing.T) {
	ds := toyDataset()
	for _, cfg := range []Config{
		{Loss: "logistic", L2: 0.01, MaxSteps: 10},
	} {
		cfg.Eta = 0.2
		if _, err := Train(ds, cfg); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
}

func TestAdaGradAndTorrentOptions(t *testing.T) {
	ds := toyDataset()
	resAda, err := Train(ds, Config{System: MLlibStar, AdaGrad: true, Eta: 0.5, MaxSteps: 15})
	if err != nil {
		t.Fatal(err)
	}
	if resAda.Curve.Best() >= resAda.Curve.Points[0].Objective {
		t.Error("AdaGrad made no progress")
	}
	// Torrent broadcast moves the model off the driver's outbound link; on a
	// wide model that must shorten the run even though total bytes are
	// unchanged (the chunks still flow, just not all through the driver).
	wide := GenerateDataset("wide", 400, 30000, 6, 2)
	naive, err := Train(wide, Config{System: MLlib, Eta: 1, BatchFraction: 0.5, MaxSteps: 5})
	if err != nil {
		t.Fatal(err)
	}
	torrent, err := Train(wide, Config{System: MLlib, Eta: 1, BatchFraction: 0.5, MaxSteps: 5, TorrentBroadcast: true})
	if err != nil {
		t.Fatal(err)
	}
	if torrent.SimTime >= naive.SimTime {
		t.Errorf("torrent run %g s not below naive %g s", torrent.SimTime, naive.SimTime)
	}
}

func TestConfigErrors(t *testing.T) {
	ds := toyDataset()
	cases := []Config{
		{Loss: "nope"},
		{L2: -1},
		{L2: math.NaN()},
		{L2: math.Inf(1)},
		{System: "NotASystem"},
		{Eta: math.NaN()},
		{BatchFraction: math.NaN()},
		{TargetObjective: math.NaN()},
		{TargetObjective: -1},
		{MaxSimTime: math.Inf(1)},
		{EvalEvery: -1},
		{System: LBFGS, Loss: "logistic", TargetObjective: math.NaN()},
		// An option the chosen system does not read is an error.
		{System: MLlib, AdaGrad: true},
		{System: MLlibStarSVRG, Loss: "logistic", AdaGrad: true},
		{System: MLlibMA, Reweight: true},
		{System: Petuum, Reweight: true},
		{System: MLlibStar, TorrentBroadcast: true},
		{System: MLlibMA, TorrentBroadcast: true},
		{System: MLlibStar, Staleness: 3},
		{System: LBFGS, Loss: "logistic", Staleness: 1},
	}
	for i, cfg := range cases {
		if _, err := Train(ds, cfg); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	if _, err := Train(nil, Config{}); err == nil {
		t.Error("want error for nil dataset")
	}
	if _, err := Train(&Dataset{}, Config{}); err == nil {
		t.Error("want error for empty dataset")
	}
}

// TestRegularizationStrengthErrorsNameTheField: NaN and ±Inf are rejected
// like a negative strength, naming the field.
func TestRegularizationStrengthErrorsNameTheField(t *testing.T) {
	for _, tc := range []struct {
		cfg   Config
		field string
	}{
		{Config{L2: math.NaN()}, "L2"},
		{Config{L2: math.Inf(1)}, "L2"},
		{Config{L2: -1}, "L2"},
	} {
		_, err := Train(toyDataset(), tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.field+" ") {
			t.Errorf("L2=%g: err = %v, want one naming %s", tc.cfg.L2, err, tc.field)
		}
	}
}

// TestClusterExecutors: only the zero-value Cluster means Cluster1(8); any
// other cluster needs at least one executor, and a bad count is an error,
// not a panic inside Partition or a silent substitute.
func TestClusterExecutors(t *testing.T) {
	ds := toyDataset()
	for _, cl := range []Cluster{Cluster1(0), Cluster2(0), Cluster1(-3), Cluster2(-3), {Executors: -3}} {
		if _, err := Train(ds, Config{Cluster: cl, MaxSteps: 2}); err == nil || !strings.Contains(err.Error(), "Executors") {
			t.Errorf("%q with %d executors: err = %v, want an Executors error", cl.Name, cl.Executors, err)
		}
	}
	res, err := Train(ds, Config{MaxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Train(ds, Config{Cluster: Cluster1(8), MaxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimTime != want.SimTime || res.TotalBytes != want.TotalBytes {
		t.Errorf("zero-value Cluster ran %g s / %g B, Cluster1(8) %g s / %g B", res.SimTime, res.TotalBytes, want.SimTime, want.TotalBytes)
	}
}

// TestUnknownSystemNamesTheValidOnes: the error lists every Systems() entry,
// and the system is resolved before the cluster is checked — a negative
// executor count is an error too, so getting this one proves the order.
func TestUnknownSystemNamesTheValidOnes(t *testing.T) {
	_, err := Train(toyDataset(), Config{System: "NotASystem", Cluster: Cluster{Executors: -1}})
	if err == nil || !strings.Contains(err.Error(), `unknown system "NotASystem"`) {
		t.Fatalf("err = %v, want unknown system", err)
	}
	for _, sys := range Systems() {
		if !strings.Contains(err.Error(), string(sys)) {
			t.Errorf("error %q does not name %q", err, sys)
		}
	}
}

func TestTargetObjectiveStopsEarly(t *testing.T) {
	res, err := Train(toyDataset(), Config{MaxSteps: 200, Eta: 0.3, Decay: true, TargetObjective: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if res.CommSteps >= 200 {
		t.Errorf("did not stop early: %d", res.CommSteps)
	}
}

func TestPresetDataset(t *testing.T) {
	ds, err := PresetDataset("url", 5000)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name != "url" || len(ds.Examples) == 0 {
		t.Errorf("ds = %v", ds.Stats())
	}
	if _, err := PresetDataset("nope", 5000); err == nil {
		t.Error("want error")
	}
}

func TestLibSVMRoundTripPublic(t *testing.T) {
	ds := GenerateDataset("t", 20, 30, 4, 1)
	var buf bytes.Buffer
	if err := WriteLibSVM(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLibSVM(&buf, "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Examples) != 20 {
		t.Errorf("n = %d", len(back.Examples))
	}
}

func TestTraceRendersGantt(t *testing.T) {
	rec := NewTrace()
	_, err := Train(toyDataset(), Config{MaxSteps: 3, Eta: 0.1, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderGantt(rec, 80)
	if !strings.Contains(out, "driver") || !strings.Contains(out, "legend") {
		t.Errorf("gantt = %q", out)
	}
}
