package mllibstar

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mllibstar/internal/glm"
	"mllibstar/internal/oracle"
)

// TestModelSaveLoadRoundTrip: a checkpoint written with Save loads back
// with every weight bit (−0 and +0 count as different) and every prediction
// bit intact — for a finished model, a mid-training snapshot whose trainer
// held it in the L2 scaled representation w = s·v, and weights
// materialized straight out of the lazily scaled updater (oracle.LazyL2SGD).
func TestModelSaveLoadRoundTrip(t *testing.T) {
	trained := func(ds *Dataset, cfg Config) *Model {
		t.Helper()
		res, err := Train(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Model
	}
	toy := toyDataset()
	ckpt := GenerateDataset("serve-ckpt", 2000, 600, 8, 11)
	lazyData := GenerateDataset("serve-lazy", 500, 600, 8, 13)
	lazy := oracle.NewLazyL2SGD(make([]float64, lazyData.Features), 0.01)
	for _, e := range lazyData.Examples {
		lazy.Step(glm.Logistic{}, e, 0.1)
	}
	for _, tc := range []struct {
		name  string
		model *Model
		probe []Example
	}{
		{"finished", trained(toy, Config{MaxSteps: 10, Eta: 0.3, Decay: true, Loss: "logistic"}), toy.Examples[:10]},
		{"mid_training_l2", trained(ckpt, Config{Loss: "logistic", L2: 0.001, Eta: 0.3, Decay: true, MaxSteps: 7}), ckpt.Examples[:50]},
		{"lazy_l2", &Model{Weights: lazy.Weights(), loss: glm.Logistic{}}, lazyData.Examples[:30]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.model.Save(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := LoadModel(&buf)
			if err != nil {
				t.Fatal(err)
			}
			requireSameModel(t, back, tc.model)
			for i, e := range tc.probe {
				if got, want := math.Float64bits(back.Predict(e)), math.Float64bits(tc.model.Predict(e)); got != want {
					t.Fatalf("example %d: prediction %x after the round trip, %x before", i, got, want)
				}
			}
		})
	}
}

// FuzzLoadModel: any bytes either fail to load or load a model that saves
// and loads back with the same loss name and the same weight bits, and
// LoadModel never panics.
func FuzzLoadModel(f *testing.F) {
	f.Add([]byte(`{"format":"mllibstar-model-v1","loss":"logistic","weights":[0.5,-0,1e-300,-2.25]}`))
	f.Add([]byte(`{"format":"mllibstar-model-v1","loss":"hinge","weights":null}`))
	f.Add([]byte(`{"format":"mllibstar-model-v1","loss":"squared","weights":[]} trailing`))
	f.Add([]byte(`{"format":"mllibstar-model-v1","loss":"nope","weights":[1]}`))
	f.Add([]byte(`{"format":"other","weights":[]}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := LoadModel(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("a loaded model does not save: %v", err)
		}
		back, err := LoadModel(&buf)
		if err != nil {
			t.Fatalf("a saved model does not load: %v\n%s", err, buf.Bytes())
		}
		requireSameModel(t, back, m)
	})
}

// requireSameModel fails t unless got has want's loss name and weight bits;
// −0 and +0 differ.
func requireSameModel(t *testing.T, got, want *Model) {
	t.Helper()
	if got.loss.Name() != want.loss.Name() {
		t.Errorf("loss %q came back as %q", want.loss.Name(), got.loss.Name())
	}
	if len(got.Weights) != len(want.Weights) {
		t.Fatalf("%d weights came back as %d", len(want.Weights), len(got.Weights))
	}
	for j := range want.Weights {
		if g, w := math.Float64bits(got.Weights[j]), math.Float64bits(want.Weights[j]); g != w {
			t.Fatalf("weight %d: %x came back as %x", j, w, g)
		}
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("not json")); err == nil {
		t.Error("want decode error")
	}
	if _, err := LoadModel(strings.NewReader(`{"format":"other","weights":[]}`)); err == nil {
		t.Error("want format error")
	}
	if _, err := LoadModel(strings.NewReader(`{"format":"mllibstar-model-v1","loss":"nope","weights":[]}`)); err == nil {
		t.Error("want loss error")
	}
}

func TestTrainTestGeneralization(t *testing.T) {
	// Train on a prefix of the generated rows and classify the rest.
	ds := GenerateDataset("gen", 4000, 300, 10, 5)
	train := &Dataset{Name: "gen-train", Features: ds.Features, Examples: ds.Examples[:3000]}
	res, err := Train(train, Config{Loss: "logistic", L2: 0.001, Eta: 0.3, Decay: true, MaxSteps: 30})
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Model.Accuracy(ds.Examples[3000:]); acc < 0.8 {
		t.Errorf("held-out accuracy = %g, want > 0.8", acc)
	}
}
