package data_test

// External test package: data's own test file cannot import opt anymore now
// that opt consumes data.View (the test binary would form an import cycle).

import (
	"testing"

	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/opt"
)

func TestGenerateIsLearnable(t *testing.T) {
	// The planted model must make the task solvable well above chance.
	d := data.Generate(data.Spec{Name: "t", Rows: 2000, Cols: 50, NNZPerRow: 10, Seed: 7, NoiseRate: 0.02})
	obj := glm.SVM(0)
	w := make([]float64, d.Features)
	step := 0
	for ep := 0; ep < 5; ep++ {
		opt.LocalPassView(obj, w, d.View(), opt.InvSqrt(0.5), step, nil)
		step += len(d.Examples)
	}
	if acc := glm.Accuracy(w, d.Examples); acc < 0.8 {
		t.Errorf("accuracy after training = %g, want > 0.8", acc)
	}
}
