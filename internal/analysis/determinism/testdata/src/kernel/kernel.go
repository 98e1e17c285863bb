// Corpus for the slab-kernel idioms of internal/data: running loss sums
// threaded through per-block calls, rowPtr-chained two-row pipelined margin
// loops, and structural work charges derived from row-pointer differences.
// Every float fold here ranges over slices in index order and every charged
// quantity is a structural count — there is no map-iteration or wall-clock
// source anywhere — so the determinism analyzer must stay silent on this
// whole file.
package kernel

// ComputeKind is the charge primitive (bodyless: no node in the graph).
func ComputeKind(kind string, work float64)

type arena struct {
	rowPtr []int
	ind    []int32
	val    []float64
	labels []float64
}

// blockFold mirrors a gradLoss body: one running sum threaded in and out,
// margins of two consecutive rows pipelined in one interleaved loop, the
// gradient written into the caller-owned g. The accumulation order is the
// deterministic row/nonzero order of the slabs.
func blockFold(c *arena, lo, hi int, w, g []float64, sum float64) (float64, int) {
	rp, ind, val, lbl := c.rowPtr, c.ind, c.val, c.labels
	rs := rp[lo]
	r := lo
	for ; r+1 < hi; r += 2 {
		mid, re := rp[r+1], rp[r+2]
		rIx1, rVal1 := ind[rs:mid], val[rs:mid]
		rIx2, rVal2 := ind[mid:re], val[mid:re]
		m1, m2 := 0.0, 0.0
		k := len(rIx1)
		if len(rIx2) < k {
			k = len(rIx2)
		}
		for p := 0; p < k; p++ {
			m1 += w[rIx1[p]] * rVal1[p]
			m2 += w[rIx2[p]] * rVal2[p]
		}
		for p := k; p < len(rIx1); p++ {
			m1 += w[rIx1[p]] * rVal1[p]
		}
		for p := k; p < len(rIx2); p++ {
			m2 += w[rIx2[p]] * rVal2[p]
		}
		sum += m1 * lbl[r]
		sum += m2 * lbl[r+1]
		for p, ix := range rIx1 {
			g[ix] += m1 * rVal1[p]
		}
		for p, ix := range rIx2 {
			g[ix] += m2 * rVal2[p]
		}
		rs = re
	}
	if r < hi {
		re := rp[r+1]
		rIx, rVal := ind[rs:re], val[rs:re]
		m := 0.0
		for p, ix := range rIx {
			m += w[ix] * rVal[p]
		}
		sum += m * lbl[r]
	}
	return sum, rp[hi] - rp[lo]
}

// chargeBlocks mirrors the trainer call sites: the loss sum is threaded
// through the blocks and the virtual charge is the structural nonzero count
// returned by the kernel — both derived purely from slab structure.
func chargeBlocks(c *arena, blk int, w, g []float64) float64 {
	sum := 0.0
	n := len(c.rowPtr) - 1
	for lo := 0; lo < n; lo += blk {
		hi := lo + blk
		if hi > n {
			hi = n
		}
		var work int
		sum, work = blockFold(c, lo, hi, w, g, sum)
		ComputeKind("grad", float64(work)*2)
	}
	return sum
}
