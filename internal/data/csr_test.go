package data

import (
	"reflect"
	"testing"

	"mllibstar/internal/glm"
)

func TestPackExamplesPreservesRowsBitForBit(t *testing.T) {
	d := Generate(Spec{Name: "t", Rows: 200, Cols: 300, NNZPerRow: 7, Seed: 5})
	c := PackExamples(d.Examples)
	if c.NumRows() != len(d.Examples) {
		t.Fatalf("rows = %d, want %d", c.NumRows(), len(d.Examples))
	}
	if c.NNZ() != glm.NNZTotal(d.Examples) {
		t.Fatalf("nnz = %d, want %d", c.NNZ(), glm.NNZTotal(d.Examples))
	}
	for i, got := range c.Rows() {
		want := d.Examples[i]
		if got.Label != want.Label ||
			!reflect.DeepEqual(got.X.Ind, want.X.Ind) ||
			!reflect.DeepEqual(got.X.Val, want.X.Val) {
			t.Fatalf("row %d changed: %+v -> %+v", i, want, got)
		}
	}
}

// TestPackExamplesRowsAreSlabContiguous verifies the layout claim itself:
// the row views are windows of two shared slabs, first row at the slab
// head, last row ending at the slab tail.
func TestPackExamplesRowsAreSlabContiguous(t *testing.T) {
	d := Generate(Spec{Name: "t", Rows: 50, Cols: 100, NNZPerRow: 5, Seed: 9})
	c := PackExamples(d.Examples)
	rows := c.Rows()
	first, last := rows[0].X, rows[len(rows)-1].X
	if len(first.Val) == 0 || len(last.Val) == 0 {
		t.Fatal("generator produced empty boundary rows; pick another seed")
	}
	if &first.Val[0] != &c.val[0] || &first.Ind[0] != &c.ind[0] {
		t.Error("first row's slices are not the head of the shared slabs")
	}
	if &last.Val[len(last.Val)-1] != &c.val[c.NNZ()-1] || &last.Ind[len(last.Ind)-1] != &c.ind[c.NNZ()-1] {
		t.Error("last row's slices are not the tail of the shared slabs")
	}
	// A row view must not be able to append over its neighbour.
	mid := rows[len(rows)/2].X
	if cap(mid.Val) != len(mid.Val) || cap(mid.Ind) != len(mid.Ind) {
		t.Error("row views should be capacity-clamped (three-index slices)")
	}
}
