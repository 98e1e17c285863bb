// Package allreduce implements the paper's distributed aggregation: an
// AllReduce built from two rounds of shuffle among the executors
// (Algorithm 3), with no central node.
//
//   - Reduce-Scatter: the model is logically split into k contiguous
//     partitions, partition j owned by executor j. Each executor sends every
//     partition except its own to that partition's owner, then combines the
//     k received copies of the partition it owns.
//   - AllGather: each owner broadcasts its combined partition to every other
//     executor, after which all executors hold the identical global model.
//
// The total traffic per call is 2·(k−1)·m/k bytes per executor — the same
// 2·k·m aggregate the centralized pattern moves, but with no single link
// serializing it, which is where MLlib*'s latency win comes from.
//
// The schedule is data: Plan returns one executor's ordered steps (produce,
// send, fold, gather) and every entry point executes them, while
// internal/causal lowers the same steps into its what-if re-timer. The
// chunk count C cuts each partition into C messages; with C > 1 (-pipeline)
// a forked sender drains them while the task process folds, so a superstep
// costs toward max(compute, comm) instead of their sum, and C = 1 is the
// plain two-round schedule. An optional Producer fills the vector block by
// block; with overlap on (-overlap) the chunks leave as soon as their
// blocks exist. With internal/sparse enabled, partitions ship as index–value
// overlays relative to a reference every endpoint holds (AverageDelta; zero
// for the other forms) when that is smaller.
//
// None of the three moves a result bit or a byte, only virtual time: the
// dense/sparse decision is made on whole partitions and chunks inherit it
// (sparse.Enc.Slice); a chunk's received copies are folded in ascending
// sender order — not arrival order — then scaled, so every coordinate sees
// the same float operations whatever C, the encoding or the timing; and a
// Producer yields the bits of the one-shot pass in any block order.
package allreduce

import (
	"fmt"
	"sync/atomic"

	"mllibstar/internal/des"
	"mllibstar/internal/engine"
)

// DefaultChunks is the chunk count of -pipeline and -overlap without
// -chunks: the pipeline fill stays under an eighth of the round while the
// per-chunk framing overhead stays negligible.
const DefaultChunks = 8

var (
	chunkCount atomic.Int32
	overlapOn  atomic.Bool
)

func init() { chunkCount.Store(1) }

// Configure sets the chunk count: 1 (or less) is the unchunked schedule,
// C > 1 the pipelined one. Like sparse.Configure it is process-wide, set
// between runs, not during one.
func Configure(chunks int) { chunkCount.Store(int32(max(chunks, 1))) }

// Chunks returns the configured chunk count; 1 means unchunked.
func Chunks() int { return int(chunkCount.Load()) }

// Enabled reports whether the pipelined (chunked) schedule is active.
func Enabled() bool { return Chunks() > 1 }

// ConfigureOverlap switches AverageProduced between overlapped block
// production and the produce-then-reduce schedule. Overlap engages only on
// a chunked schedule: with C = 1 there are no chunk messages to hide
// production behind. Process-wide, like Configure.
func ConfigureOverlap(on bool) { overlapOn.Store(on) }

// OverlapEnabled reports whether overlapped production is requested.
func OverlapEnabled() bool { return overlapOn.Load() }

// ValidateChunks rejects chunk counts below 1 or beyond the smallest
// partition (dim/k coordinates) of a model of dim coordinates over k
// executors. Flag entry points fail fast with it; the collectives clamp C
// instead, so tiny models degrade to the unchunked schedule.
func ValidateChunks(chunks, dim, k int) error {
	if chunks < 1 {
		return fmt.Errorf("allreduce: chunk count %d is invalid: need at least 1 chunk", chunks)
	}
	if dim > 0 && k > 0 {
		if minPart := dim / k; chunks > minPart {
			return fmt.Errorf("allreduce: chunk count %d exceeds the smallest model partition (%d coordinates over %d executors = %d per partition); use at most %d chunks",
				chunks, dim, k, minPart, minPart)
		}
	}
	return nil
}

// Producer yields a vector block by block, so an overlapped collective can
// ship finished coordinate ranges while later ones are still uncomputed.
// data.GradStream is the canonical implementation (the two-pass
// feature-major gradient kernel).
//
// The contract, which the overlap's bit-identity rests on:
//
//   - Prepare runs once, before any Produce, and is pure (offload-safe).
//   - Produce(lo, hi) finalizes coordinates [lo, hi) of the target vector;
//     blocks may be requested in any order, each exactly once, and the calls
//     the collective makes cover [0, dim). Produce is pure and must yield
//     bits independent of the block partitioning and order.
//   - PrepareWork and Work(lo, hi) are the virtual-time charges; over any
//     partitioning of [0, dim) they must sum to the work the equivalent
//     one-shot computation would charge, so overlap on/off moves charges
//     around without changing their total.
type Producer interface {
	Prepare()
	PrepareWork() float64
	Produce(lo, hi int)
	Work(lo, hi int) float64
}

// Average replaces local, in place, with the element-wise average of the
// local vectors across all executors. It must be called from within the
// same stage on every executor in execs, with self the caller's index and a
// name unique to this collective call (it namespaces the message tags).
// Message payloads are shared between sender and receiver and must be
// treated as immutable.
func Average(p *des.Proc, ex *engine.Executor, execs []string, self int, name string, local []float64) {
	allReduce(p, ex, execs, self, name, local, nil, true, nil)
}

// AverageDelta is Average with a reference vector for sparse delta
// encoding: ref must hold identical bits on every executor (the last
// synchronized model) and must not be mutated while the collective runs.
// The result is bit-identical to Average; when internal/sparse is enabled,
// partitions whose delta against ref is sparse ship compressed.
func AverageDelta(p *des.Proc, ex *engine.Executor, execs []string, self int, name string, local, ref []float64) {
	if ref != nil && len(ref) != len(local) {
		panic(fmt.Sprintf("allreduce: ref length %d, local %d", len(ref), len(local)))
	}
	allReduce(p, ex, execs, self, name, local, ref, true, nil)
}

// Sum is Average without the final division: local becomes the element-wise
// sum across executors (the model-summation rule of unstarred Petuum, made
// available for ablations).
func Sum(p *des.Proc, ex *engine.Executor, execs []string, self int, name string, local []float64) {
	allReduce(p, ex, execs, self, name, local, nil, false, nil)
}

// AverageProduced is Average for a vector prod fills block by block. With
// overlap on and C > 1 the Reduce-Scatter chunks leave as soon as their
// blocks exist, peers in RouteOrder; otherwise production is one compute
// charge before the first send — exactly computing local, then Average.
func AverageProduced(p *des.Proc, ex *engine.Executor, execs []string, self int, name string, local []float64, prod Producer) {
	allReduce(p, ex, execs, self, name, local, nil, true, prod)
}
