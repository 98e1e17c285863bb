package data

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"mllibstar/internal/detrand"
)

func TestGenerateShape(t *testing.T) {
	d := Generate(Spec{Name: "t", Rows: 500, Cols: 100, NNZPerRow: 8, Seed: 1})
	if len(d.Examples) != 500 || d.Features != 100 {
		t.Fatalf("shape = %d x %d", len(d.Examples), d.Features)
	}
	for i, e := range d.Examples {
		if e.Label != 1 && e.Label != -1 {
			t.Fatalf("example %d label = %g", i, e.Label)
		}
		if e.X.NNZ() == 0 {
			t.Fatalf("example %d empty", i)
		}
		if int(e.X.MaxIndex()) >= 100 {
			t.Fatalf("example %d index out of range", i)
		}
	}
	st := d.Stats()
	if st.AvgNNZ < 4 || st.AvgNNZ > 12 {
		t.Errorf("avg nnz = %g, want near 8", st.AvgNNZ)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Name: "t", Rows: 100, Cols: 50, NNZPerRow: 5, Seed: 42}
	a, b := Generate(spec), Generate(spec)
	if !reflect.DeepEqual(a.Examples, b.Examples) {
		t.Error("same seed produced different datasets")
	}
	c := Generate(Spec{Name: "t", Rows: 100, Cols: 50, NNZPerRow: 5, Seed: 43})
	if reflect.DeepEqual(a.Examples, c.Examples) {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateZipfSkew(t *testing.T) {
	// Hot features must appear far more often than the uniform expectation.
	d := Generate(Spec{Name: "t", Rows: 2000, Cols: 1000, NNZPerRow: 10, Seed: 3})
	counts := make([]int, 1000)
	total := 0
	for _, e := range d.Examples {
		for _, ix := range e.X.Ind {
			counts[ix]++
			total++
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniform := float64(total) / 1000
	if float64(max) < 5*uniform {
		t.Errorf("max feature count %d vs uniform %g: not skewed", max, uniform)
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		spec, err := Preset(name, 1000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.Rows <= 0 || spec.Cols <= 0 || spec.NNZPerRow <= 0 {
			t.Errorf("%s: bad spec %+v", name, spec)
		}
		paper, err := PaperStats(name)
		if err != nil {
			t.Fatal(err)
		}
		// Scaled preset preserves determinedness.
		if (spec.Rows >= spec.Cols) != paper.Determined {
			t.Errorf("%s: determinedness flipped at scale: %d x %d vs paper %v",
				name, spec.Rows, spec.Cols, paper.Determined)
		}
	}
	if _, err := Preset("nope", 1000); err == nil {
		t.Error("want error for unknown preset")
	}
	if _, err := Preset("avazu", 0.5); err == nil {
		t.Error("want error for scale < 1")
	}
	if _, err := Preset("avazu", math.NaN()); err == nil {
		t.Error("want error for scale NaN")
	}
	if _, err := PaperStats("nope"); err == nil {
		t.Error("want error for unknown paper stats")
	}
}

func TestPaperStatsMatchTableI(t *testing.T) {
	st, _ := PaperStats("kdd12")
	if st.Instances != 149639105 || st.Features != 54686452 {
		t.Errorf("kdd12 = %+v", st)
	}
	if !st.Determined {
		t.Error("kdd12 should be determined")
	}
	st, _ = PaperStats("kddb")
	if st.Determined {
		t.Error("kddb should be underdetermined")
	}
}

func TestPartitionCoversAll(t *testing.T) {
	d := Generate(Spec{Name: "t", Rows: 103, Cols: 20, NNZPerRow: 3, Seed: 1})
	parts := d.Partition(8, 99)
	total := 0
	sizes := map[int]bool{}
	for _, p := range parts {
		total += p.NumRows()
		sizes[p.NumRows()] = true
	}
	if total != 103 {
		t.Errorf("total = %d", total)
	}
	if len(sizes) > 2 {
		t.Errorf("partition sizes should differ by at most one: %v", sizes)
	}
	// Deterministic given the seed (a second Partition call would only
	// return the kept result).
	parts2 := partition(d.Examples, 8, 99)
	if !reflect.DeepEqual(parts[0].Examples(), parts2[0].Examples()) {
		t.Error("partitioning not deterministic")
	}
}

// sameArenas reports whether two partitionings are views of the same memory.
func sameArenas(a, b []View) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if &a[i].Examples()[0] != &b[i].Examples()[0] {
			return false
		}
	}
	return true
}

// requireFreshPartition holds parts to a partition built from scratch, value
// for value.
func requireFreshPartition(t *testing.T, what string, parts []View, d *Dataset, k int, seed int64) {
	t.Helper()
	want := partition(d.Examples, k, seed)
	if len(parts) != len(want) {
		t.Fatalf("%s: %d partitions, want %d", what, len(parts), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(parts[i].Examples(), want[i].Examples()) {
			t.Fatalf("%s: partition %d differs from a freshly packed one", what, i)
		}
	}
}

func TestPartitionKeepsItsLastResult(t *testing.T) {
	d := Generate(Spec{Name: "t", Rows: 103, Cols: 20, NNZPerRow: 3, Seed: 1})
	first := d.Partition(8, 99)
	requireFreshPartition(t, "first call", first, d, 8, 99)

	// The same (k, seed): the same arenas under a slice of the caller's own.
	again := d.Partition(8, 99)
	if !sameArenas(first, again) {
		t.Error("second call with the same (k, seed) repacked the data")
	}
	again[0] = View{}
	if third := d.Partition(8, 99); third[0].NumRows() != first[0].NumRows() {
		t.Error("a caller's write to the returned slice reached the kept result")
	}

	// Another k or seed replaces the entry: asking for the first pair again
	// repacks, and gives the same values.
	for _, other := range []struct {
		k    int
		seed int64
	}{{4, 99}, {8, 100}} {
		parts := d.Partition(other.k, other.seed)
		requireFreshPartition(t, "other (k, seed)", parts, d, other.k, other.seed)
		back := d.Partition(8, 99)
		if sameArenas(first, back) {
			t.Errorf("Partition(%d, %d) did not replace the kept result", other.k, other.seed)
		}
		requireFreshPartition(t, "after replacement", back, d, 8, 99)
		first = back
	}

	// A re-sliced or reassigned Examples is another dataset.
	d.Examples = d.Examples[1:]
	resliced := d.Partition(8, 99)
	requireFreshPartition(t, "re-sliced Examples", resliced, d, 8, 99)
	d.Examples = append([]glmExample(nil), d.Examples...)
	d.Examples[0].Label = -d.Examples[0].Label
	reassigned := d.Partition(8, 99)
	if sameArenas(resliced, reassigned) {
		t.Error("reassigning Examples (same length) did not repartition")
	}
	requireFreshPartition(t, "reassigned Examples", reassigned, d, 8, 99)

	empty := &Dataset{Name: "empty"}
	if parts := empty.Partition(3, 1); len(parts) != 3 || parts[0].NumRows() != 0 {
		t.Errorf("empty dataset: %d partitions, first has %d rows", len(parts), parts[0].NumRows())
	}
	if parts := empty.Partition(3, 1); len(parts) != 3 {
		t.Errorf("empty dataset, second call: %d partitions", len(parts))
	}
}

// TestPartitionConcurrent calls Partition from eight goroutines — four on one
// (k, seed), four on others that keep replacing the entry; run under -race.
func TestPartitionConcurrent(t *testing.T) {
	d := Generate(Spec{Name: "t", Rows: 500, Cols: 20, NNZPerRow: 3, Seed: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, seed := 8, int64(99)
			if g >= 4 {
				k, seed = g, int64(g)
			}
			for n := 0; n < 20; n++ {
				rows := 0
				for _, p := range d.Partition(k, seed) {
					rows += p.NumRows()
				}
				if rows != len(d.Examples) {
					t.Errorf("Partition(%d, %d) covers %d of %d rows", k, seed, rows, len(d.Examples))
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSubsample(t *testing.T) {
	d := Generate(Spec{Name: "t", Rows: 100, Cols: 20, NNZPerRow: 3, Seed: 1})
	s := d.Subsample(10, 5)
	if len(s.Examples) != 10 || s.Features != 20 {
		t.Fatalf("subsample = %d x %d", len(s.Examples), s.Features)
	}
	// The rows are the drawn ones, in dataset order, bit for bit ...
	drawn := detrand.Perm(5, len(d.Examples))[:10]
	sort.Ints(drawn)
	for i, j := range drawn {
		if !reflect.DeepEqual(s.Examples[i], d.Examples[j]) {
			t.Errorf("sample row %d is not dataset row %d", i, j)
		}
	}
	// ... packed back to back in one slab of their own.
	for i := 0; i+1 < len(s.Examples); i++ {
		a, b := s.Examples[i].X, s.Examples[i+1].X
		if len(a.Ind) == 0 || len(b.Ind) == 0 {
			t.Fatal("generator produced an empty row; pick another seed")
		}
		// Row views are capacity-clamped, so adjacency is read off the
		// addresses: each row's slices end where the next row's begin.
		if reflect.ValueOf(a.Ind).Pointer()+uintptr(4*len(a.Ind)) != reflect.ValueOf(b.Ind).Pointer() ||
			reflect.ValueOf(a.Val).Pointer()+uintptr(8*len(a.Val)) != reflect.ValueOf(b.Val).Pointer() {
			t.Errorf("sample rows %d and %d are not adjacent in one backing array", i, i+1)
		}
	}
	if got := d.Subsample(1000, 5); got != d {
		t.Error("oversized subsample should return the dataset itself")
	}
	if got := d.Subsample(len(d.Examples), 5); got != d {
		t.Error("a subsample of every row should return the dataset itself")
	}
}

func TestLibSVMRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		d := Generate(Spec{Name: "t", Rows: 30, Cols: 40, NNZPerRow: 5, Seed: seed})
		var buf bytes.Buffer
		if err := WriteLibSVM(&buf, d); err != nil {
			return false
		}
		got, err := ReadLibSVM(&buf, "t")
		if err != nil {
			return false
		}
		if len(got.Examples) != len(d.Examples) {
			return false
		}
		for i := range d.Examples {
			a, b := d.Examples[i], got.Examples[i]
			if a.Label != b.Label || !reflect.DeepEqual(a.X.Ind, b.X.Ind) {
				return false
			}
			for j := range a.X.Val {
				if math.Abs(a.X.Val[j]-b.X.Val[j]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestReadLibSVMLabelConventions(t *testing.T) {
	in := "+1 1:0.5 3:1\n0 2:2\n# comment\n\n-1 1:1\n"
	d, err := ReadLibSVM(strings.NewReader(in), "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Examples) != 3 {
		t.Fatalf("n = %d", len(d.Examples))
	}
	if d.Examples[0].Label != 1 || d.Examples[1].Label != -1 || d.Examples[2].Label != -1 {
		t.Errorf("labels = %v %v %v", d.Examples[0].Label, d.Examples[1].Label, d.Examples[2].Label)
	}
	// 1-based on disk -> 0-based in memory; features tracks the max index.
	if d.Examples[0].X.Ind[0] != 0 || d.Examples[0].X.Ind[1] != 2 {
		t.Errorf("indices = %v", d.Examples[0].X.Ind)
	}
	if d.Features != 3 {
		t.Errorf("features = %d", d.Features)
	}
}

func TestReadLibSVMErrors(t *testing.T) {
	cases := []string{
		"x 1:1",     // bad label
		"1 nope",    // malformed feature
		"1 0:1",     // index < 1
		"1 2:1 1:1", // decreasing indices
		"1 1:1 1:2", // duplicate index
		"1 1:abc",   // bad value
	}
	for _, in := range cases {
		if _, err := ReadLibSVM(strings.NewReader(in), "x"); err == nil {
			t.Errorf("input %q: want error", in)
		}
	}
}

// TestReadLibSVMRejectsDuplicateAndDescending pins the two within-row index
// malformations to distinct, line-numbered diagnostics: a duplicate index
// (double-emitted feature) and a descending index (unsorted writer) are
// different bugs upstream and the message should say which one happened.
func TestReadLibSVMRejectsDuplicateAndDescending(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"1 1:1\n1 4:1 4:2\n", "line 2: duplicate feature index 4"},
		{"1 1:1\n1 5:1 3:2\n", "line 2: descending feature index 3 after 5"},
	}
	for _, tc := range cases {
		_, err := ReadLibSVM(strings.NewReader(tc.in), "x")
		if err == nil {
			t.Errorf("input %q: want error", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("input %q: error %q, want it to mention %q", tc.in, err, tc.want)
		}
	}
}

func TestStatsString(t *testing.T) {
	d := Generate(Spec{Name: "t", Rows: 100, Cols: 20, NNZPerRow: 3, Seed: 1})
	s := d.Stats().String()
	if !strings.Contains(s, "instances") || !strings.Contains(s, "determined") {
		t.Errorf("stats string = %q", s)
	}
}

func TestSplit(t *testing.T) {
	d := Generate(Spec{Name: "t", Rows: 100, Cols: 20, NNZPerRow: 3, Seed: 1})
	train, test, err := d.Split(0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Examples) != 80 || len(test.Examples) != 20 {
		t.Errorf("split = %d/%d", len(train.Examples), len(test.Examples))
	}
	if train.Features != 20 || test.Features != 20 {
		t.Error("features not propagated")
	}
	// Deterministic.
	tr2, _, _ := d.Split(0.2, 7)
	if !reflect.DeepEqual(train.Examples[0], tr2.Examples[0]) {
		t.Error("split not deterministic")
	}
	if _, _, err := d.Split(0, 7); err == nil {
		t.Error("want error for fraction 0")
	}
	if _, _, err := (&Dataset{}).Split(0.5, 7); err == nil {
		t.Error("want error for empty dataset")
	}
}

func TestKFold(t *testing.T) {
	d := Generate(Spec{Name: "t", Rows: 103, Cols: 20, NNZPerRow: 3, Seed: 1})
	folds, err := d.KFold(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	totalTest := 0
	for i, f := range folds {
		totalTest += len(f.Test.Examples)
		if len(f.Train.Examples)+len(f.Test.Examples) != 103 {
			t.Errorf("fold %d sizes: %d + %d != 103", i, len(f.Train.Examples), len(f.Test.Examples))
		}
	}
	if totalTest != 103 {
		t.Errorf("test folds cover %d examples, want 103", totalTest)
	}
	if _, err := d.KFold(1, 7); err == nil {
		t.Error("want error for k=1")
	}
}
