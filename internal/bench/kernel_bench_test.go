package bench

import (
	"testing"

	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/opt"
)

// TestCSRKernelZeroAllocs is the zero-alloc guard of the slab kernels at
// workload scale: every kernel entry point, and the opt-layer view passes that wrap them,
// must run allocation-free once their reusable scratch is warm.
func TestCSRKernelZeroAllocs(t *testing.T) {
	w, err := loadWorkload("avazu", RunConfig{Scale: 20000, EvalCap: 200})
	if err != nil {
		t.Fatal(err)
	}
	v := data.ViewOf(w.ds.Examples)
	dim := w.ds.Features
	obj := glm.SVM(0.1)
	model := make([]float64, dim)
	g := make([]float64, dim)
	rows := []int32{1, 5, 9, 40}
	sched := opt.Const(0.05)
	sc := &opt.PassScratch{}
	mgd := &opt.MGDScratch{}
	batch := v.Sub(0, 256)
	// Warm the reusable scratch (lazy-L2 shadow).
	opt.LocalPassView(obj, model, v, sched, 0, sc)
	for name, fn := range map[string]func(){
		"AddGradient":     func() { data.AddGradient(obj, model, v, g) },
		"AddGradientRows": func() { data.AddGradientRows(obj, model, v, rows, g) },
		"GradAndLoss":     func() { data.GradAndLoss(obj, model, v, g) },
		"LossSum":         func() { data.LossSum(obj, model, v) },
		"LocalPassView":   func() { opt.LocalPassView(obj, model, v, sched, 0, sc) },
		"MGDStepView":     func() { opt.MGDStepView(obj, model, batch, 0.05, mgd) },
	} {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s: %g allocs/op, want 0", name, allocs)
		}
	}
}
