package data

import (
	"math"
	"math/rand"
	"testing"

	"mllibstar/internal/glm"
	"mllibstar/internal/vec"
)

// randomRequests builds n sparse feature vectors over dim coordinates with
// irregular sparsity, packed into a CSR arena like the serving router does.
func randomRequests(r *rand.Rand, n, dim int) View {
	ex := make([]glm.Example, n)
	for i := range ex {
		nnz := 1 + r.Intn(40)
		seen := map[int32]bool{}
		var ind []int32
		for len(ind) < nnz {
			j := int32(r.Intn(dim))
			if !seen[j] {
				seen[j] = true
				ind = append(ind, j)
			}
		}
		// CSR rows keep indices ascending.
		for a := 1; a < len(ind); a++ {
			for b := a; b > 0 && ind[b] < ind[b-1]; b-- {
				ind[b], ind[b-1] = ind[b-1], ind[b]
			}
		}
		val := make([]float64, len(ind))
		for k := range val {
			val[k] = r.NormFloat64()
		}
		ex[i] = glm.Example{X: vec.Sparse{Ind: ind, Val: val}}
	}
	return ViewOf(ex)
}

func randomWeights(r *rand.Rand, dim int) []float64 {
	w := make([]float64, dim)
	for j := range w {
		w[j] = r.NormFloat64()
	}
	return w
}

// partitionBlocks mirrors ps.BlockAlignedRange without importing ps (data
// must stay import-light): blocks split evenly, remainders to low shards.
func partitionBlocks(dim, k, i int) (lo, hi int) {
	nb := (dim + ScoreBlock - 1) / ScoreBlock
	base, rem := nb/k, nb%k
	bLo := i*base + min(i, rem)
	bHi := bLo + base
	if i < rem {
		bHi++
	}
	lo, hi = bLo*ScoreBlock, bHi*ScoreBlock
	if lo > dim {
		lo = dim
	}
	if hi > dim {
		hi = dim
	}
	return lo, hi
}

// shardedMargins scores the batch with k block-aligned shards and folds the
// partials in shard order, exactly like the serving router.
func shardedMargins(v View, w []float64, k int) []float64 {
	perRow := make([][]BlockPartial, v.NumRows())
	for s := 0; s < k; s++ {
		lo, hi := partitionBlocks(len(w), k, s)
		parts := BlockMargins(v, w[lo:hi], lo, nil)
		for _, p := range parts {
			perRow[p.Row] = append(perRow[p.Row], p)
		}
	}
	out := make([]float64, v.NumRows())
	for i, parts := range perRow {
		out[i] = FoldMargin(parts)
	}
	return out
}

// TestShardCountInvariance: the folded sharded margin is bit-identical to
// the canonical Margin for 1, 4, and 16 shards.
func TestShardCountInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const dim = 5000 // 20 blocks: uneven splits for k=4 (20/4) and k=16 (4 rem 4)
	w := randomWeights(r, dim)
	v := randomRequests(r, 64, dim)
	want := make([]float64, v.NumRows())
	for i := range want {
		_, ind, val := v.Row(i)
		want[i] = Margin(w, ind, val)
	}
	for _, k := range []int{1, 4, 16} {
		got := shardedMargins(v, w, k)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("k=%d row %d: sharded margin %x != canonical %x",
					k, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestMarginTruncation: feature indices beyond the model dimension are
// ignored, matching the vec.Dot truncation rule used in training.
func TestMarginTruncation(t *testing.T) {
	w := []float64{2, 3}
	ind := []int32{0, 1, 5}
	val := []float64{1, 10, 100}
	if got := Margin(w, ind, val); got != 32 {
		t.Fatalf("Margin with out-of-range index = %g, want 32", got)
	}
	parts := BlockMargins(ViewOf([]glm.Example{{X: vec.Sparse{Ind: ind, Val: val}}}), w, 0, nil)
	if len(parts) != 1 || parts[0].Sum != 32 {
		t.Fatalf("BlockMargins with out-of-range index = %+v, want one partial of 32", parts)
	}
}

// TestBlockMarginsStructure: partials appear rows-in-order, blocks ascending
// within a row, and blocks with no nonzeros are absent.
func TestBlockMarginsStructure(t *testing.T) {
	dim := 4 * ScoreBlock
	w := make([]float64, dim)
	for j := range w {
		w[j] = 1
	}
	ex := []glm.Example{
		{X: vec.Sparse{Ind: []int32{1, int32(3*ScoreBlock + 1)}, Val: []float64{1, 2}}}, // blocks 0 and 3
		{X: vec.Sparse{Ind: []int32{int32(ScoreBlock)}, Val: []float64{5}}},             // block 1 only
	}
	parts := BlockMargins(ViewOf(ex), w, 0, nil)
	want := []BlockPartial{
		{Row: 0, Block: 0, Sum: 1},
		{Row: 0, Block: 3, Sum: 2},
		{Row: 1, Block: 1, Sum: 5},
	}
	if len(parts) != len(want) {
		t.Fatalf("got %d partials %+v, want %d", len(parts), parts, len(want))
	}
	for i := range want {
		if parts[i] != want[i] {
			t.Fatalf("partial %d = %+v, want %+v", i, parts[i], want[i])
		}
	}
}

// TestFoldDiffersFromFlatDot documents why the block fold exists: for an
// adversarial vector the flat left-to-right dot and the block fold disagree
// in low-order bits, so the serving tier pins one canonical order.
func TestFoldDiffersFromFlatDot(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	dim := 3 * ScoreBlock
	w := randomWeights(r, dim)
	ind := make([]int32, dim)
	val := make([]float64, dim)
	for j := range ind {
		ind[j] = int32(j)
		val[j] = r.NormFloat64() * math.Ldexp(1, r.Intn(40)-20)
	}
	flat := 0.0
	for k, j := range ind {
		flat += w[j] * val[k]
	}
	block := Margin(w, ind, val)
	if math.Abs(flat-block) > 1e-9*math.Abs(flat) {
		t.Fatalf("orders diverged beyond rounding: flat=%g block=%g", flat, block)
	}
	// Not asserting inequality — it is overwhelmingly likely but not
	// guaranteed; the test pins that both are finite and near-equal while
	// the package doc explains they need not share low-order bits.
	if math.IsNaN(block) || math.IsInf(block, 0) {
		t.Fatalf("block fold not finite: %g", block)
	}
}
