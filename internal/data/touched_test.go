package data

import (
	"math/rand"
	"slices"
	"testing"

	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// touchedRef is the in-range column set of the rows, by brute force: every
// index below dim any row holds, ascending.
func touchedRef(rows []glm.Example, dim int) []int32 {
	seen := map[int32]bool{}
	for _, e := range rows {
		for _, j := range e.X.Ind {
			if int(j) < dim {
				seen[j] = true
			}
		}
	}
	var out []int32
	for j := range seen {
		out = append(out, j)
	}
	slices.Sort(out)
	return out
}

func sparseRows(rng *rand.Rand, n, span int) []glm.Example {
	rows := make([]glm.Example, n)
	for i := range rows {
		m := map[int32]float64{}
		for k := rng.Intn(8); k > 0; k-- { // empty rows included
			m[int32(rng.Intn(span))] = rng.NormFloat64()
		}
		rows[i] = glm.Example{Label: 1, X: vec.SparseFromMap(m)}
	}
	return rows
}

// TestAppendTouched checks the touched set of a view against brute force:
// distinct indices, exactly the in-range ones (a model shorter than the
// feature space drops the rest), the union across a wrapping window's two
// spans, and the marks left all false.
func TestAppendTouched(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const span = 50
	for trial := 0; trial < 200; trial++ {
		rows := sparseRows(rng, 1+rng.Intn(20), span)
		v := ViewOf(rows)
		dim := span
		if trial%2 == 1 {
			dim = 1 + rng.Intn(span)
		}
		mark := make([]uint8, dim)
		// A window wrapping the end: rows [cut, n) then [0, rem).
		n := v.NumRows()
		cut, rem := rng.Intn(n+1), rng.Intn(n+1)
		a, b := v.Sub(cut, n), v.Sub(0, rem)
		got := b.AppendTouched(a.AppendTouched(nil, mark), mark)
		want := touchedRef(append(append([]glm.Example(nil), a.Examples()...), b.Examples()...), dim)
		sorted := slices.Clone(got)
		slices.Sort(sorted)
		if !slices.Equal(sorted, want) {
			t.Fatalf("trial %d dim %d: touched %v, want the set %v", trial, dim, got, want)
		}
		if slices.ContainsFunc(mark, func(m uint8) bool { return m != 0 }) {
			t.Fatalf("trial %d: marks left set after AppendTouched", trial)
		}
	}
	if got := (View{}).AppendTouched([]int32{4}, make([]uint8, 8)); !slices.Equal(got, []int32{4}) {
		t.Fatalf("empty view appended %v to [4]", got)
	}
}
