// Package data provides the datasets of the MLlib* evaluation: a libsvm
// reader/writer for real data, and synthetic generators whose presets mirror
// the shape of the paper's five workloads (Table I) at a configurable scale.
//
// The paper's datasets are either unavailable (Tencent's WX) or far larger
// than a single-machine reproduction can iterate on (7–434 GB), so each
// preset preserves the properties the evaluation actually probes —
// determined vs underdetermined (rows vs columns), nonzeros per row, skewed
// feature popularity, and label noise — at ~1/1000 scale by default.
package data

import (
	"fmt"
	"sort"
	"sync"

	"mllibstar/internal/detrand"
	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// Spec describes a synthetic GLM classification dataset.
type Spec struct {
	Name      string
	Rows      int     // number of instances
	Cols      int     // number of features
	NNZPerRow int     // mean nonzeros per instance
	ZipfS     float64 // feature-popularity skew (>1; larger = more skewed)
	NoiseRate float64 // probability of flipping a label
	Seed      int64
}

// Dataset is an in-memory labelled dataset. It holds a lock (Partition's
// memo): pass it by pointer.
type Dataset struct {
	Name     string
	Features int
	Examples []glm.Example

	// parted is Partition's last result, so that the trainers of one
	// comparison, which all ask for the same (k, seed), shuffle and repack
	// the data once. One entry: another (k, seed) replaces it, never a
	// second copy of the data.
	partedMu sync.Mutex
	parted   struct {
		k    int
		seed int64
		// Examples as it was when parts was built: its length and first
		// element's address. A reassigned or re-sliced Examples no longer
		// matches and repartitions.
		n     int
		first *glm.Example
		parts []View
	}
}

// Stats summarizes a dataset the way Table I does.
type Stats struct {
	Name       string
	Instances  int
	Features   int
	NNZ        int
	AvgNNZ     float64
	SizeBytes  int64 // approximate libsvm text size
	Determined bool  // more instances than features
}

// Stats computes summary statistics.
func (d *Dataset) Stats() Stats {
	nnz := glm.NNZTotal(d.Examples)
	avg := 0.0
	if len(d.Examples) > 0 {
		avg = float64(nnz) / float64(len(d.Examples))
	}
	// ~13 bytes per "index:value" text token plus label/newline per row.
	size := int64(nnz)*13 + int64(len(d.Examples))*4
	return Stats{
		Name:       d.Name,
		Instances:  len(d.Examples),
		Features:   d.Features,
		NNZ:        nnz,
		AvgNNZ:     avg,
		SizeBytes:  size,
		Determined: len(d.Examples) >= d.Features,
	}
}

// String formats the stats as a Table I row.
func (s Stats) String() string {
	kind := "underdetermined"
	if s.Determined {
		kind = "determined"
	}
	return fmt.Sprintf("%-8s %12d instances %12d features %10.1f nnz/row %8.1f MB (%s)",
		s.Name, s.Instances, s.Features, s.AvgNNZ, float64(s.SizeBytes)/1e6, kind)
}

// Generate builds a synthetic dataset: feature indices are drawn from a
// Zipf distribution (a few features are hot, most are rare, as in CTR and
// web data), values are standard normal, and labels come from a planted
// Gaussian model with NoiseRate label flips. The planted model guarantees
// the classification task is learnable, so convergence curves are
// meaningful.
//
// Each row draws (index, value) pairs until it holds its row size in
// distinct indices — a repeated index keeps its latest value — and is stored
// with its indices ascending and exact-zero values dropped. The rows are
// written in order straight into one CSR arena.
func Generate(spec Spec) *Dataset {
	return &Dataset{Name: spec.Name, Features: spec.Cols, Examples: generate(spec).Rows()}
}

func generate(spec Spec) *CSR {
	if spec.Rows <= 0 || spec.Cols <= 0 {
		panic(fmt.Sprintf("data: invalid spec %+v", spec))
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
	zipf := detrand.NewZipf(rng, zs, 8, uint64(spec.Cols-1))

	truth := make([]float64, spec.Cols)
	for i := range truth {
		truth[i] = rng.NormFloat64()
	}

	// Rows average nnz nonzeros; the slack keeps the slabs from regrowing
	// when a small dataset's rows run long.
	capNNZ := spec.Rows * nnz
	capNNZ += capNNZ / 4
	ind := make([]int32, 0, capNNZ)
	val := make([]float64, 0, capNNZ)
	rowPtr := make([]int, 1, spec.Rows+1)
	labels := make([]float64, spec.Rows)
	row := newRowBuilder(spec.Cols)
	for r := range labels {
		// Row sizes vary ±50% around the mean for realism; a row cannot hold
		// more distinct indices than there are columns.
		rowNNZ := nnz/2 + rng.Intn(nnz+1)
		if rowNNZ == 0 {
			rowNNZ = 1
		}
		rowNNZ = min(rowNNZ, spec.Cols)
		for row.distinct() < rowNNZ {
			row.set(int32(zipf.Uint64()), rng.NormFloat64())
		}
		lo := len(ind)
		ind, val = row.appendTo(ind, val)
		y := 1.0
		if vec.Dot(truth, vec.Sparse{Ind: ind[lo:], Val: val[lo:]}) < 0 {
			y = -1
		}
		if rng.Float64() < spec.NoiseRate {
			y = -y
		}
		labels[r] = y
		rowPtr = append(rowPtr, len(ind))
	}
	return newCSR(rowPtr, ind, val, labels)
}

// rowBuilder holds one generated row while it is drawn: its distinct
// indices in first-drawn order and each one's latest value. slot[ix] is one
// more than ix's position in ind and val, 0 while ix is not in the row, so a
// repeated index is found without a search; appendTo sorts the indices alone
// and reads each value through its slot.
type rowBuilder struct {
	slot []int32
	ind  []int32
	val  []float64
}

// newRowBuilder returns a builder for indices up to cols: math/rand's Zipf
// over [0, imax] can return imax+1, when for a uniform draw within rounding
// of 0 the computed inverse lands on imax+0.5.
func newRowBuilder(cols int) *rowBuilder {
	return &rowBuilder{slot: make([]int32, cols+1)}
}

// distinct returns how many distinct indices the row holds.
func (b *rowBuilder) distinct() int { return len(b.ind) }

// set gives index ix the value v, replacing the value it had.
func (b *rowBuilder) set(ix int32, v float64) {
	if p := b.slot[ix]; p != 0 {
		b.val[p-1] = v
		return
	}
	b.ind = append(b.ind, ix)
	b.val = append(b.val, v)
	b.slot[ix] = int32(len(b.ind))
}

// appendTo appends the row's entries to the slabs, indices ascending and
// exact zeros dropped, and leaves the builder empty.
func (b *rowBuilder) appendTo(ind []int32, val []float64) ([]int32, []float64) {
	// Insertion sort: a row holds at most 1.5·NNZPerRow indices (96 for
	// the widest preset), below where a general sort pays for its set-up.
	for i := 1; i < len(b.ind); i++ {
		ix, j := b.ind[i], i
		for ; j > 0 && b.ind[j-1] > ix; j-- {
			b.ind[j] = b.ind[j-1]
		}
		b.ind[j] = ix
	}
	for _, ix := range b.ind {
		v := b.val[b.slot[ix]-1]
		b.slot[ix] = 0
		if v != 0 {
			ind = append(ind, ix)
			val = append(val, v)
		}
	}
	b.ind, b.val = b.ind[:0], b.val[:0]
	return ind, val
}

// paperSpec records a Table I dataset at paper scale.
type paperSpec struct {
	rows, cols int
	nnzPerRow  int
	sizeBytes  int64
}

// paperTable is Table I of the paper, with nonzeros-per-row estimated from
// the published dataset descriptions (libsvm collection) and file sizes.
var paperTable = map[string]paperSpec{
	"avazu": {40428967, 1000000, 15, 7_400_000_000},
	"url":   {2396130, 3231961, 115, 2_100_000_000},
	"kddb":  {19264097, 29890095, 29, 4_800_000_000},
	"kdd12": {149639105, 54686452, 11, 21_000_000_000},
	"wx":    {231937380, 51121518, 64, 434_000_000_000},
}

// PresetNames lists the dataset presets in Table I order.
func PresetNames() []string { return []string{"avazu", "url", "kddb", "kdd12", "wx"} }

// PaperStats returns the Table I row for a preset at paper scale.
func PaperStats(name string) (Stats, error) {
	p, ok := paperTable[name]
	if !ok {
		return Stats{}, fmt.Errorf("data: unknown preset %q", name)
	}
	return Stats{
		Name:       name,
		Instances:  p.rows,
		Features:   p.cols,
		NNZ:        p.rows * p.nnzPerRow,
		AvgNNZ:     float64(p.nnzPerRow),
		SizeBytes:  p.sizeBytes,
		Determined: p.rows >= p.cols,
	}, nil
}

// Preset returns a generator spec for one of the paper's datasets, linearly
// scaled down: rows and columns are divided by scale, preserving the
// determined/underdetermined character and the per-row sparsity. scale=1
// reproduces paper dimensions (do not materialize those in memory).
func Preset(name string, scale float64) (Spec, error) {
	p, ok := paperTable[name]
	if !ok {
		return Spec{}, fmt.Errorf("data: unknown preset %q (have %v)", name, PresetNames())
	}
	if scale < 1 {
		return Spec{}, fmt.Errorf("data: scale %g < 1", scale)
	}
	rows := int(float64(p.rows) / scale)
	cols := int(float64(p.cols) / scale)
	if rows < 64 {
		rows = 64
	}
	if cols < 16 {
		cols = 16
	}
	nnz := p.nnzPerRow
	if nnz > cols/4 {
		nnz = cols / 4
	}
	if nnz < 1 {
		nnz = 1
	}
	return Spec{
		Name:      name,
		Rows:      rows,
		Cols:      cols,
		NNZPerRow: nnz,
		ZipfS:     1.7, // web/CTR data is heavily skewed toward hot features
		NoiseRate: 0.05,
		Seed:      int64(len(name))*7919 + 1, // stable per preset
	}, nil
}

// Partition splits the dataset's examples into k contiguous, near-equal
// partitions, the way Spark partitions an input file across executors. The
// examples are first shuffled deterministically so partitions are
// statistically alike — the paper's setting, where data is randomly
// distributed across workers. Each partition is repacked into its own CSR
// arena (PackExamples) and returned as that arena's View: after the shuffle
// scatters rows, the repack restores slab locality in exactly the order the
// owning executor will stream them, with values bit-copied so training
// numerics cannot depend on the layout — and the trainers keep the packed
// form end-to-end (batch windows are Sub views, slab kernels consume the
// arena directly).
//
// The last result is kept: a call with the same (k, seed) on the same
// Examples slice (same length, same first element) returns a fresh []View
// over the same arenas, which are shared and read-only — and keep their
// cached feature-major mirrors from run to run. An Example edited in place
// after the first call is not seen; assign a new Examples slice instead.
func (d *Dataset) Partition(k int, seed int64) []View {
	if k <= 0 {
		panic(fmt.Sprintf("data: Partition(%d)", k))
	}
	var first *glm.Example
	if len(d.Examples) > 0 {
		first = &d.Examples[0]
	}
	d.partedMu.Lock()
	defer d.partedMu.Unlock()
	m := &d.parted
	if m.parts == nil || m.k != k || m.seed != seed || m.n != len(d.Examples) || m.first != first {
		m.k, m.seed, m.n, m.first = k, seed, len(d.Examples), first
		m.parts = nil // the old arenas may go before the new ones are built
		m.parts = partition(d.Examples, k, seed)
	}
	return append([]View(nil), m.parts...)
}

func partition(examples []glm.Example, k int, seed int64) []View {
	perm := detrand.Perm(seed, len(examples))
	shuffled := make([]glm.Example, len(examples))
	for i, j := range perm {
		shuffled[i] = examples[j]
	}
	parts := make([]View, k)
	for i := 0; i < k; i++ {
		lo, hi := vec.PartitionRange(len(shuffled), k, i)
		parts[i] = PackExamples(shuffled[lo:hi]).View()
	}
	return parts
}

// Subsample returns a dataset with at most n examples drawn without
// replacement (deterministically), used for objective evaluation on very
// large datasets: d itself when it has no more than n, else bit-copies of the
// drawn rows, in dataset order, packed into one arena of their own — an
// evaluation sweeps them as one slab instead of hopping across d's.
func (d *Dataset) Subsample(n int, seed int64) *Dataset {
	if n >= len(d.Examples) {
		return d
	}
	perm := detrand.Perm(seed, len(d.Examples))[:n]
	sort.Ints(perm)
	out := make([]glm.Example, n)
	for i, j := range perm {
		out[i] = d.Examples[j]
	}
	return &Dataset{Name: d.Name + "-sample", Features: d.Features, Examples: PackExamples(out).Rows()}
}
