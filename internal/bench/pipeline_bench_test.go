package bench

// Allocation guard for the CSR arena layout: a cache-blocked mini-batch pass
// over an arena must not allocate (make bench-smoke runs it).

import (
	"math/rand"
	"testing"

	"mllibstar/internal/data"
	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// csrKernelData builds a CSR arena and a random model over its features.
func csrKernelData() (arena *data.CSR, model []float64) {
	ds := data.Generate(data.Spec{Name: "csrbench", Rows: 4000, Cols: 20000, NNZPerRow: 12, Seed: 23})
	rng := rand.New(rand.NewSource(23))
	model = make([]float64, ds.Features)
	for i := range model {
		model[i] = rng.NormFloat64()
	}
	return data.PackExamples(ds.Examples), model
}

// dotSweep is a fused dot-and-margin pass over each row, the inner loop of
// every GLM gradient.
func dotSweep(model []float64, batch []glm.Example) float64 {
	s := 0.0
	for _, e := range batch {
		d, n2 := vec.DotNorm(model, e.X)
		s += e.Label*d + n2
	}
	return s
}

// TestCSRBatchZeroAllocs: a full cache-blocked mini-batch pass over a CSR
// arena — the layout every Partition returns — must not allocate at all.
func TestCSRBatchZeroAllocs(t *testing.T) {
	arena, model := csrKernelData()
	batch := arena.BlockRows(0)
	sink := 0.0
	allocs := testing.AllocsPerRun(10, func() {
		arena.Batches(batch, func(rows []glm.Example) {
			sink += dotSweep(model, rows)
		})
	})
	if allocs != 0 {
		t.Errorf("CSR batch pass allocates %.1f times, want 0", allocs)
	}
	_ = sink
}
