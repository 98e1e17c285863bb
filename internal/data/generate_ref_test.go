package data

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mllibstar/internal/detrand"
	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// generateReference is the generator Generate replaced — a map per row,
// vec.SparseFromMap, math/rand's Zipf and a PackExamples repack — kept as
// written, apart from the row-size clamp to Cols without which it never
// returns when a row needs more distinct indices than there are columns. It
// is the oracle TestGenerateMatchesReference holds Generate to.
func generateReference(spec Spec) *CSR {
	if spec.Rows <= 0 || spec.Cols <= 0 {
		panic("data: invalid spec")
	}
	nnz := spec.NNZPerRow
	if nnz <= 0 {
		nnz = 10
	}
	if nnz > spec.Cols {
		nnz = spec.Cols
	}
	zs := spec.ZipfS
	if zs <= 1 {
		zs = 1.1
	}
	rng := detrand.New(spec.Seed)
	zipf := rand.NewZipf(rng, zs, 8, uint64(spec.Cols-1))

	truth := make([]float64, spec.Cols)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}

	examples := make([]glm.Example, spec.Rows)
	indexSet := make(map[int32]float64, nnz)
	for r := range examples {
		clear(indexSet)
		rowNNZ := nnz/2 + rng.Intn(nnz+1)
		if rowNNZ == 0 {
			rowNNZ = 1
		}
		rowNNZ = min(rowNNZ, spec.Cols)
		for len(indexSet) < rowNNZ {
			indexSet[int32(zipf.Uint64())] = rng.NormFloat64()
		}
		x := vec.SparseFromMap(indexSet)
		y := 1.0
		if vec.Dot(truth, x) < 0 {
			y = -1
		}
		if rng.Float64() < spec.NoiseRate {
			y = -y
		}
		examples[r] = glm.Example{Label: y, X: x}
	}
	return PackExamples(examples)
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestGenerateMatchesReference holds Generate's arena to the reference
// generator's, bit for bit: the benchmark workloads' shapes at fewer rows,
// every Table I preset, the ZipfS ≤ 1 default, more nonzeros per row than
// columns, a single column and the default row size.
func TestGenerateMatchesReference(t *testing.T) {
	specs := []Spec{
		{Name: "compute8", Rows: 20_000, Cols: 10_000, NNZPerRow: 15, ZipfS: 1.7, NoiseRate: 0.05, Seed: 1},
		{Name: "scale128", Rows: 3_000, Cols: 10_000, NNZPerRow: 64, ZipfS: 1.7, NoiseRate: 0.05, Seed: 23},
		{Name: "ps8", Rows: 4_000, Cols: 15_000, NNZPerRow: 29, ZipfS: 1.7, NoiseRate: 0.05, Seed: 1},
		{Name: "wide8", Rows: 4_000, Cols: 200_000, NNZPerRow: 20, ZipfS: 1.7, NoiseRate: 0.05, Seed: 23},
		{Name: "zipf-default", Rows: 2_000, Cols: 500, NNZPerRow: 8, Seed: 3},
		{Name: "nnz>cols", Rows: 500, Cols: 6, NNZPerRow: 10, ZipfS: 1.7, Seed: 4},
		{Name: "one-col", Rows: 100, Cols: 1, NNZPerRow: 3, Seed: 5},
		{Name: "nnz-default", Rows: 300, Cols: 400, Seed: 6},
	}
	for _, name := range PresetNames() {
		spec, err := Preset(name, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for _, spec := range specs {
		got, want := generate(spec), generateReference(spec)
		if !slices.Equal(got.rowPtr, want.rowPtr) {
			t.Fatalf("%s: rowPtr differs", spec.Name)
		}
		if !slices.Equal(got.ind, want.ind) || !bitsEqual(got.val, want.val) {
			t.Fatalf("%s: index or value slab differs", spec.Name)
		}
		if !bitsEqual(got.labels, want.labels) || got.maxInd != want.maxInd {
			t.Fatalf("%s: labels or maxInd (%d, want %d) differ", spec.Name, got.maxInd, want.maxInd)
		}
		if len(got.rows) != len(want.rows) {
			t.Fatalf("%s: %d rows, want %d", spec.Name, len(got.rows), len(want.rows))
		}
		for i, e := range got.rows {
			w := want.rows[i]
			if math.Float64bits(e.Label) != math.Float64bits(w.Label) || !slices.Equal(e.X.Ind, w.X.Ind) || !bitsEqual(e.X.Val, w.X.Val) {
				t.Fatalf("%s: row %d differs", spec.Name, i)
			}
		}
	}
}

// TestRowBuilderMapSemantics pins the rules the generator's map had, which a
// zero NormFloat64 (a 2⁻³² event) would otherwise exercise only by chance: a
// repeated index overwrites its value, an index counts as distinct even while
// its value is 0, and a row drops its exact zeros when it is emitted.
func TestRowBuilderMapSemantics(t *testing.T) {
	b := newRowBuilder(10)
	b.set(7, 0)
	b.set(3, 1)
	b.set(3, 2)
	b.set(5, 1)
	b.set(5, 0)
	b.set(2, 0)
	b.set(2, 4)
	b.set(1, -1)
	if b.distinct() != 5 {
		t.Fatalf("distinct = %d, want 5", b.distinct())
	}
	ind, val := b.appendTo([]int32{9}, []float64{9})
	if !slices.Equal(ind, []int32{9, 1, 2, 3}) || !slices.Equal(val, []float64{9, -1, 4, 2}) {
		t.Fatalf("row = %v %v, want [9 1 2 3] [9 -1 4 2]", ind, val)
	}
	if b.distinct() != 0 || slices.ContainsFunc(b.slot, func(p int32) bool { return p != 0 }) {
		t.Fatalf("builder not empty after appendTo: %d distinct, slots %v", b.distinct(), b.slot)
	}
	b.set(7, 5)
	if ind, val := b.appendTo(nil, nil); !slices.Equal(ind, []int32{7}) || !slices.Equal(val, []float64{5}) {
		t.Fatalf("reused builder row = %v %v, want [7] [5]", ind, val)
	}

	// Random rows, a third of their values 0, against the map.
	rng := rand.New(rand.NewSource(1))
	m := map[int32]float64{}
	for row := 0; row < 200; row++ {
		clear(m)
		for n := rng.Intn(30); n > 0; n-- {
			ix, v := int32(rng.Intn(11)), float64(rng.Intn(3))
			b.set(ix, v)
			m[ix] = v
		}
		if b.distinct() != len(m) {
			t.Fatalf("row %d: distinct = %d, the map holds %d", row, b.distinct(), len(m))
		}
		want := vec.SparseFromMap(m)
		if ind, val := b.appendTo(nil, nil); !slices.Equal(ind, want.Ind) || !slices.Equal(val, want.Val) {
			t.Fatalf("row %d = %v %v, the map gives %v %v", row, ind, val, want.Ind, want.Val)
		}
	}
}

// TestGenerateFewColumns generates rows that ask for more distinct indices
// than there are columns (row sizes reach 1.5·NNZPerRow): each holds every
// column at most once.
func TestGenerateFewColumns(t *testing.T) {
	const cols = 4
	d := Generate(Spec{Name: "few", Rows: 50, Cols: cols, NNZPerRow: 4, ZipfS: 1.7, NoiseRate: 0.05, Seed: 1})
	full := 0
	for i, e := range d.Examples {
		if e.X.NNZ() > cols || e.X.MaxIndex() >= cols {
			t.Fatalf("row %d = %v over %d columns", i, e.X.Ind, cols)
		}
		if e.X.NNZ() == cols {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no row reached the column count")
	}
}
