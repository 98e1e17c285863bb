// Package mllib implements the baseline the paper studies: Spark MLlib's
// mini-batch gradient descent for GLMs, i.e. the SendGradient paradigm of
// Algorithm 2 executed as BSP stages.
//
// Each communication step (1) broadcasts the current model with the task
// descriptors, (2) has every executor sample a mini batch from its cached
// partition and compute a gradient sum, (3) aggregates the gradients
// hierarchically through intermediate executors (treeAggregate), and (4)
// applies a single model update at the driver. The single-update-per-step
// pattern (bottleneck B1) and the driver-centric aggregation (bottleneck
// B2) are exactly the properties the paper's Figure 3(a) visualizes.
package mllib

import (
	"fmt"
	"math"

	"mllibstar/internal/data"
	"mllibstar/internal/des"
	"mllibstar/internal/detrand"
	"mllibstar/internal/engine"
	"mllibstar/internal/glm"
	"mllibstar/internal/obs"
	"mllibstar/internal/sparse"
	"mllibstar/internal/train"
	"mllibstar/internal/vec"
)

// System is the curve label for this trainer.
const System = "MLlib"

// Aggregators resolves the treeAggregate fan-in: the explicit value if set,
// otherwise ceil(sqrt(k)) — the branching of MLlib's default depth-2 tree.
func Aggregators(prm train.Params, k int) int {
	if prm.Aggregators > 0 {
		return prm.Aggregators
	}
	a := int(math.Ceil(math.Sqrt(float64(k))))
	if a < 1 {
		a = 1
	}
	return a
}

// Train runs SendGradient mini-batch gradient descent on the cluster behind
// ctx. parts must have one partition per executor, in executor order.
// evalData is the out-of-band evaluation set; dataset labels the curve.
func Train(ctx *engine.Context, parts []data.View, dim int, prm train.Params,
	evalData []glm.Example, dataset string) (*train.Result, error) {

	if err := prm.Validate(); err != nil {
		return nil, err
	}
	k := ctx.NumExecutors()
	if len(parts) != k {
		return nil, fmt.Errorf("mllib: %d partitions for %d executors", len(parts), k)
	}
	if prm.BatchFraction == 0 {
		prm.BatchFraction = 1
	}

	sim := ctx.Cluster.Sim
	net := ctx.Cluster.Net
	driver := net.Node(ctx.Cluster.Driver)
	ev := train.NewEvaluatorInto(net.Sink(), System, dataset, prm.Objective, evalData, prm.EvalEvery)
	ev.StopAt(prm.TargetObjective)
	aggs := Aggregators(prm, k)
	sched := prm.Schedule()

	res := &train.Result{System: System, Curve: ev.Curve}
	w := make([]float64, dim)
	// Per-executor sampling state, reused across supersteps: the stream,
	// re-seeded every step to the one detrand.Step would build, and the row
	// buffer the sampler fills (one entry more than the partition has rows,
	// see sampleRows). Distinct per executor, so parallel task offload is
	// race-free; full-batch runs draw nothing and have none.
	var streams []*detrand.Stream
	var rowScratch [][]int32
	if prm.BatchFraction < 1 {
		streams = make([]*detrand.Stream, k)
		rowScratch = make([][]int32, k)
		for i := range streams {
			streams[i] = detrand.NewStream(prm.Seed)
			rowScratch[i] = make([]int32, parts[i].NumRows()+1)
		}
	}

	sim.Spawn("driver:mllib", func(p *des.Proc) {
		ev.Record(0, p.Now(), w)
		for t := 1; t <= prm.MaxSteps; t++ {
			ctx.Cluster.Net.Sink().SetStep(t, p.Now())
			stepW := w // tasks read, never write, the current model
			// With sparse exchange on, the model broadcast is charged at its
			// nonzero-coded size and the gradient partials (whose support is
			// the mini batch's) ship compressed back through the tree.
			payload := sparse.WireBytesFor(stepW, nil)
			if prm.TorrentBroadcast {
				// Chunked broadcast in its own stage; the gradient stage
				// then ships only task descriptors. The chunks stay dense —
				// BitTorrent-style chunking already shares the load, and the
				// chunk protocol is outside the sparse layer.
				ctx.BroadcastVec(p, fmt.Sprintf("bc%d", t), dim, true)
				payload = 0
			}
			sum := ctx.TreeAggregateVec(p, fmt.Sprintf("mgd%d", t), dim+1, aggs, payload,
				func(i int) ([]float64, float64) {
					local := parts[i]
					g := ctx.GetVec(dim + 1)
					var work, count int
					if prm.BatchFraction >= 1 {
						work = data.AddGradient(prm.Objective, stepW, local, g[:dim])
						count = local.NumRows()
					} else {
						streams[i].SeedStep(prm.Seed, t, i)
						rows := sampleRows(streams[i], local.NumRows(), prm.BatchFraction, rowScratch[i])
						work = data.AddGradientRows(prm.Objective, stepW, local, rows, g[:dim])
						count = len(rows)
					}
					g[dim] = float64(count)
					// Sampling scans the partition; gradient work is nnz.
					return g, float64(work) + float64(local.NumRows())
				})
			count := sum[dim]
			if count > 0 {
				eta := sched(t - 1)
				inv := eta / count
				for j := 0; j < dim; j++ {
					w[j] -= inv*sum[j] + eta*prm.Objective.Reg.DerivAt(w[j])
				}
				driver.ComputeKind(p, float64(dim), obs.PhaseUpdate, "model update")
				res.Updates++
				ctx.Cluster.Net.Sink().Updates(t, ctx.Cluster.Driver, 1, p.Now())
			}
			ctx.PutVec(sum)
			res.CommSteps = t
			if ev.Record(t, p.Now(), w) {
				break
			}
			if prm.MaxSimTime > 0 && p.Now() >= prm.MaxSimTime {
				break
			}
		}
	})
	res.SimTime = sim.Run()
	ev.Wait()
	res.FinalW = vec.Copy(w)
	res.TotalBytes = net.TotalBytes()
	return res, nil
}

// sampleRows draws a Bernoulli sample of the row indices [0, n), matching
// Spark's RDD.sample(false, fraction) used by MLlib's mini-batch step: one
// draw per row, in row order. The sample — and the stream position it leaves
// — is bit for bit that of `rng.Float64() < fraction` on the math/rand
// generator the stream is, which computes float64(rng.Int63())/2⁶³ and
// redraws when that rounds up to 1: the conversion is monotone in the draw,
// so the float comparison is an integer comparison of the draw against a
// threshold found once per call. The draws are taken from the stream a block
// at a time (no call per draw) and decided by decideRows; the sampled
// indices go to buf[:len(sample)], and buf must hold n+1 entries.
func sampleRows(s *detrand.Stream, n int, fraction float64, buf []int32) []int32 {
	threshold := sampleThreshold(fraction)
	row, k := 0, 0
	for row < n {
		// One word per undecided row; a redraw leaves a row for the next
		// block.
		row, k = decideRows(s.Next(n-row), threshold, row, buf, k)
	}
	return buf[:k]
}

// decideRows decides one row per word, from row on: the row is sampled when
// the word's 63-bit draw is below threshold. out[:k] holds the rows sampled
// so far; the new row and k are returned. The row index is stored
// unconditionally and kept by advancing k — the compiler makes that a
// conditional move, where `if sampled { append }` is a branch a 10 % sample
// mispredicts every tenth row — so out needs one entry beyond the rows it can
// come to hold. A draw rand.Float64 rejects (probability 2⁻⁵⁴) samples
// nothing, since threshold ≤ roundsToOne, and leaves its row to the next
// word.
func decideRows(words []uint64, threshold int64, row int, out []int32, k int) (int, int) {
	for _, x := range words {
		u := int64(x & (1<<63 - 1)) // rand.Int63 of the raw output
		out[k] = int32(row)
		if u < threshold {
			k++
		}
		if u >= roundsToOne {
			continue // Float64 redraws; so does this row
		}
		row++
	}
	return row, k
}

// roundsToOne is the first 63-bit draw whose float64 conversion is 2⁶³
// (spacing there is 1024, the tie goes to the even mantissa), i.e. the draws
// rand.Float64 rejects.
const roundsToOne = 1<<63 - 512

// sampleThreshold returns the draw U with float64(u)/2⁶³ < fraction ⇔ u < U
// for every accepted draw u: a bisection on the very predicate rand.Float64
// users evaluate, which is monotone in u.
func sampleThreshold(fraction float64) int64 {
	lo, hi := int64(0), int64(roundsToOne)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) < fraction {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
