package data_test

import (
	"fmt"
	"sync"
	"testing"

	"mllibstar/internal/data"
	"mllibstar/internal/detrand"
	"mllibstar/internal/glm"
	"mllibstar/internal/opt"
)

// BenchmarkSlabKernels reports ns per nonzero for every slab kernel × loss at
// three row widths, one whole-view pass per iteration. Each body makes one
// interface call on the loss per row, so the narrow width (2 nnz/row, below
// any Table I dataset) is where that call is the largest share of a row and
// the wide ones (15, 64: the benchmark workloads) where it vanishes. Every
// sub-benchmark first asserts the pass allocates nothing. `make bench-smoke`
// runs it at -benchtime=1x; for numbers to compare use
//
//	go test -run '^$' -bench SlabKernels -benchtime 200x -count 5 ./internal/data
func BenchmarkSlabKernels(b *testing.B) {
	const totalNNZ, cols = 300_000, 10_000
	sched := opt.InvSqrt(0.5)
	for _, width := range []int{2, 15, 64} {
		d := data.Generate(data.Spec{Name: "bench", Rows: totalNNZ / width, Cols: cols, NNZPerRow: width, Seed: 7, NoiseRate: 0.05})
		v := data.ViewOf(d.Examples)
		w0 := testModel(d.Features)
		w := make([]float64, len(w0))
		g := make([]float64, len(w0)+1)
		derivs := make([]float64, v.NumRows())
		rows := make([]int32, 0, v.NumRows()/4+1)
		for r := 0; r < v.NumRows(); r += 4 {
			rows = append(rows, int32(r))
		}
		for _, name := range []string{"hinge", "logistic", "squared"} {
			loss, err := glm.LossByName(name)
			if err != nil {
				b.Fatal(err)
			}
			obj := glm.Objective{Loss: loss, Reg: glm.None{}}
			stream := data.NewGradStream(obj, w0, v, g, true, 0)
			// Each kernel returns the nonzeros its pass visited.
			kernels := []struct {
				name string
				pass func() int
			}{
				{"AddGradient", func() int { return data.AddGradient(obj, w0, v, g) }},
				{"AddGradientRows", func() int { return data.AddGradientRows(obj, w0, v, rows, g) }},
				{"LossSum", func() int { data.LossSum(obj, w0, v); return v.NNZ() }},
				{"DerivsInto", func() int { data.DerivsInto(loss, w0, v, derivs); return v.NNZ() }},
				{"GradAndLoss", func() int { _, nnz := data.GradAndLoss(obj, w0, v, g); return nnz }},
				{"GradStreamPrepare", func() int { stream.Prepare(); return v.NNZ() }},
				// The SGD passes restart from w0 so every iteration does the
				// same updates; the copy is len(w) against 300 000 nonzeros.
				{"SGDPassPlain", func() int { copy(w, w0); return data.SGDPassPlain(loss, w, v, sched, 0) }},
				{"SGDPassLazyL2", func() int {
					copy(w, w0)
					_, work := data.SGDPassLazyL2(loss, w, 1, 0.1, v, sched, 0)
					return work
				}},
			}
			for _, k := range kernels {
				b.Run(fmt.Sprintf("%s/%s/nnz=%d", k.name, name, width), func(b *testing.B) {
					if allocs := testing.AllocsPerRun(1, func() { k.pass() }); allocs != 0 {
						b.Fatalf("%g allocs per pass, want 0", allocs)
					}
					nnz := 0
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						nnz += k.pass()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nnz), "ns/nnz")
				})
			}
		}
	}
}

// BenchmarkAddGradientRowsCold is the regime BenchmarkSlabKernels' cache-
// resident AddGradientRows row cannot show: the sampled-row gradient of a
// SendGradient step on data larger than the cache. The arena is compute8's —
// 400 000 rows × 15 nonzeros, 72 MB, in 8 partitions — every pass draws a
// fresh 10 % Bernoulli sample of each partition (timer stopped), so the rows
// a pass visits are cold, and two goroutines sweep four partitions each, the
// way a stage's tasks run on a two-CPU offload pool and share the memory
// system. ns/nnz is per thread: elapsed time × 2 / nonzeros visited.
//
//	go test -run '^$' -bench AddGradientRowsCold -benchtime 30x -count 5 ./internal/data
func BenchmarkAddGradientRowsCold(b *testing.B) {
	const k, threads, fraction = 8, 2, 0.1
	d := data.Generate(data.Spec{Name: "cold", Rows: 400_000, Cols: 10_000, NNZPerRow: 15, ZipfS: 1.7, Seed: 7, NoiseRate: 0.05})
	parts := d.Partition(k, 3)
	obj := glm.Objective{Loss: glm.Hinge{}, Reg: glm.None{}}
	w := testModel(d.Features)
	gs := make([][]float64, k)
	rows := make([][]int32, k)
	for i := range gs {
		gs[i] = make([]float64, d.Features)
	}
	rng := detrand.New(11)
	draw := func() {
		for i, part := range parts {
			rows[i] = rows[i][:0]
			for r := 0; r < part.NumRows(); r++ {
				if rng.Float64() < fraction {
					rows[i] = append(rows[i], int32(r))
				}
			}
		}
	}
	draw()
	if allocs := testing.AllocsPerRun(1, func() { data.AddGradientRows(obj, w, parts[0], rows[0], gs[0]) }); allocs != 0 {
		b.Fatalf("%g allocs per call, want 0", allocs)
	}
	var visited [threads]int
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		b.StopTimer()
		draw()
		b.StartTimer()
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := th; i < k; i += threads {
					visited[th] += data.AddGradientRows(obj, w, parts[i], rows[i], gs[i])
				}
			}()
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())*threads/float64(visited[0]+visited[1]), "ns/nnz")
}

// BenchmarkGenerate reports data.Generate's ns per generated nonzero at the
// compute8 benchmark workload's shape (400 000 rows × 10 000 columns,
// 15 nnz/row, Zipf skew 1.7): the cost its setup_s pays once per round.
//
//	go test -run '^$' -bench Generate -benchtime 3x -count 5 ./internal/data
func BenchmarkGenerate(b *testing.B) {
	spec := data.Spec{Name: "avazu", Rows: 400_000, Cols: 10_000, NNZPerRow: 15, ZipfS: 1.7, NoiseRate: 0.05, Seed: 1}
	nnz := 0
	for i := 0; i < b.N; i++ {
		nnz += glm.NNZTotal(data.Generate(spec).Examples)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nnz), "ns/nnz")
}
