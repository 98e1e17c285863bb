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
// # Sparse model-delta exchange
//
// When internal/sparse is enabled, both shuffle rounds encode their chunks
// relative to a reference vector the caller supplies (AverageDelta): the
// last synchronized model, which every endpoint already holds. A chunk whose
// delta is sparse enough ships as an index–value overlay (12·nnz bytes
// instead of 8·(hi−lo)); receivers decode back to dense before folding, so
// the arithmetic — and therefore the result — is bit-identical to the dense
// path. Only the charged wire bytes, and hence virtual time, change. The
// nil-reference forms (Average, Sum) compress by exact-zero coordinates,
// which pays off for gradient partials and for model coordinates no example
// ever touches.
//
// To keep results independent of message timing, the Reduce-Scatter fold
// combines the received chunks in ascending sender order — a canonical
// order both the sparse and dense paths share — rather than arrival order.
// The per-chunk charges still replay the arrival sequence, so virtual time
// is untouched by the reordering.
package allreduce

import (
	"fmt"
	"sort"

	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/par"
	"mllibstar/internal/sparse"
	"mllibstar/internal/trace"
	"mllibstar/internal/vec"
)

// piece is a model partition in flight during AllGather.
type piece struct {
	from int
	enc  sparse.Enc
}

// IsSparse reports the wire encoding of the carried partition, so telemetry
// books the message under the right encoding (see obs.EncodingOf).
func (pc piece) IsSparse() bool { return pc.enc.IsSparse() }

// Average replaces local, in place, with the element-wise average of the
// local vectors across all executors. It must be called from within the
// same stage on every executor in execs, with self the caller's index and a
// name unique to this collective call (it namespaces the shuffle tags).
// Message payloads are shared between sender and receiver and must be
// treated as immutable.
func Average(p *des.Proc, ex *engine.Executor, execs []string, self int, name string, local []float64) {
	reduceScatterGather(p, ex, execs, self, name, local, nil, true)
}

// AverageDelta is Average with a reference vector for sparse delta
// encoding: ref must hold identical bits on every executor (the last
// synchronized model) and must not be mutated while the collective runs.
// The result is bit-identical to Average; when internal/sparse is enabled,
// chunks whose delta against ref is sparse ship compressed.
func AverageDelta(p *des.Proc, ex *engine.Executor, execs []string, self int, name string, local, ref []float64) {
	if ref != nil && len(ref) != len(local) {
		panic(fmt.Sprintf("allreduce: ref length %d, local %d", len(ref), len(local)))
	}
	reduceScatterGather(p, ex, execs, self, name, local, ref, true)
}

// Sum is Average without the final division: local becomes the element-wise
// sum across executors (the model-summation rule of unstarred Petuum, made
// available for ablations).
func Sum(p *des.Proc, ex *engine.Executor, execs []string, self int, name string, local []float64) {
	reduceScatterGather(p, ex, execs, self, name, local, nil, false)
}

func reduceScatterGather(p *des.Proc, ex *engine.Executor, execs []string, self int, name string, local, ref []float64, average bool) {
	k := len(execs)
	if self < 0 || self >= k {
		panic(fmt.Sprintf("allreduce: self %d out of %d executors", self, k))
	}
	dim := len(local)
	if k == 1 {
		return // single executor: the local vector already is the result
	}
	if C := Chunks(); Enabled() && C > 1 {
		// Chunks cannot outnumber the coordinates of the smallest partition;
		// when a model is too small to cut, the sequential path below runs.
		if minPart := dim / k; minPart < C {
			C = minPart
		}
		if C > 1 {
			pipelinedRSG(p, ex, execs, self, name, local, ref, average, C)
			return
		}
	}
	// refRange returns ref restricted to executor j's partition (nil when no
	// reference is in play).
	refRange := func(lo, hi int) []float64 {
		if ref == nil {
			return nil
		}
		return ref[lo:hi]
	}

	// Phase 1 — Reduce-Scatter: one shuffle round shipping each foreign
	// partition to its owner, delta-encoded against the owner's slice of the
	// shared reference when that is smaller.
	outgoing := make([]engine.Block, 0, k-1)
	for j := 0; j < k; j++ {
		if j == self {
			continue
		}
		lo, hi := vec.PartitionRange(dim, k, j)
		enc := sparse.EncodeCopy(local[lo:hi], refRange(lo, hi))
		outgoing = append(outgoing, engine.Block{
			To: j, Bytes: enc.WireBytes(), Payload: enc,
		})
	}
	lo, hi := vec.PartitionRange(dim, k, self)
	own := append([]float64(nil), local[lo:hi]...)
	refOwn := refRange(lo, hi)
	// Exchange returns all k−1 foreign copies at once, so the whole fold
	// (plus the averaging scale) is one pure closure: own is this shard's
	// private buffer and the received chunks were copied (or compressed) by
	// their senders. The fold decodes each chunk and combines in ascending
	// sender order — canonical, so the summation order cannot depend on how
	// encoding sizes shift arrival times. The per-block charges are kept as
	// separate virtual-time events — the exact charge sequence of the
	// sequential engine — while the arithmetic overlaps them on the offload
	// pool.
	blocks := engine.Exchange(p, ex, execs, self, "rs:"+name, outgoing)
	folded := append([]engine.Block(nil), blocks...)
	sort.Slice(folded, func(a, b int) bool { return folded[a].From < folded[b].From })
	scratch := foldScratch(ex, folded, hi-lo)
	h := par.Do(func() { fold(own, folded, scratch, refOwn, average, k) })
	// A sparse-encoded chunk's charge models its decode, so it is traced as
	// Encode; dense chunks keep the Aggregate kind. The charges themselves
	// replay the arrival sequence either way.
	for _, b := range blocks {
		kind := trace.Aggregate
		if b.Payload.(sparse.Enc).IsSparse() {
			kind = trace.Encode
		}
		ex.ChargeKind(p, float64(hi-lo), kind, name)
	}
	h.Join()
	ex.PutVec(scratch)

	// Phase 2 — AllGather: a second shuffle round broadcasting the combined
	// partition to everyone. After averaging the chunk is usually dense
	// relative to ref (division changes almost every touched bit), so the
	// adaptive switch mostly ships these legs dense; coordinates that are
	// exactly unchanged (e.g. features no example touches) still compress.
	ownEnc := sparse.EncodeShared(own, refOwn)
	outgoing = outgoing[:0]
	for j := 0; j < k; j++ {
		if j == self {
			continue
		}
		outgoing = append(outgoing, engine.Block{
			To: j, Bytes: ownEnc.WireBytes(), Payload: piece{from: self, enc: ownEnc},
		})
	}
	copy(local[lo:hi], own)
	// Same pattern for the gather: all received pieces land in disjoint
	// ranges of local — order-insensitive by construction — so one closure
	// installs them while the per-piece charges replay the sequential event
	// sequence.
	gathered := engine.Exchange(p, ex, execs, self, "ag:"+name, outgoing)
	h = par.Do(func() {
		for _, b := range gathered {
			pc := b.Payload.(piece)
			plo, phi := vec.PartitionRange(dim, k, pc.from)
			pc.enc.DecodeInto(local[plo:phi], refRange(plo, phi))
		}
	})
	for _, b := range gathered {
		pc := b.Payload.(piece)
		plo, phi := vec.PartitionRange(dim, k, pc.from)
		kind := trace.Update
		if pc.enc.IsSparse() {
			kind = trace.Encode
		}
		ex.ChargeKind(p, float64(phi-plo), kind, name)
	}
	h.Join()
}

// foldScratch returns the vector a fold decodes its sparse chunks through —
// one per fold, from the cluster's pool, whatever the number of chunks — or
// nil when every chunk is dense and is read in place. The caller PutVecs it
// after joining the fold.
func foldScratch(ex *engine.Executor, chunks []engine.Block, n int) []float64 {
	for _, b := range chunks {
		if b.Payload.(sparse.Enc).IsSparse() {
			return ex.GetVec(n)
		}
	}
	return nil
}

// fold adds the received copies of a partition (or of one chunk of it) into
// own in the order given — ascending sender — then applies the averaging
// scale. Every copy is added densely, a sparse one after decoding it into
// scratch: the coordinates it does not list still take part in the sum
// (−0 + 0 is +0), which is what keeps the result bit-identical to the dense
// exchange.
func fold(own []float64, chunks []engine.Block, scratch, ref []float64, average bool, k int) {
	for _, b := range chunks {
		vec.AddScaled(own, b.Payload.(sparse.Enc).Decoded(scratch, ref), 1)
	}
	if average {
		vec.Scale(own, 1/float64(k))
	}
}
