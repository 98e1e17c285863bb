package allreduce

import (
	"fmt"
	"sort"
	"sync/atomic"

	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/par"
	"mllibstar/internal/sparse"
	"mllibstar/internal/trace"
	"mllibstar/internal/vec"
)

// DefaultChunks is the chunk count Configure(on, 0) selects. Eight chunks
// keep the pipeline fill (one chunk's serialization plus a latency) under an
// eighth of the round while the per-chunk framing overhead stays negligible.
const DefaultChunks = 8

var (
	pipeOn     atomic.Bool
	pipeChunks atomic.Int32
)

func init() { pipeChunks.Store(DefaultChunks) }

// Configure switches the collectives between the sequential two-round
// schedule and the pipelined chunked schedule (see pipelinedRSG). chunks ≤ 0
// selects DefaultChunks. Like par.Configure and sparse.Configure this is a
// process-wide switch flipped between runs, not during one.
func Configure(on bool, chunks int) {
	if chunks <= 0 {
		chunks = DefaultChunks
	}
	pipeChunks.Store(int32(chunks))
	pipeOn.Store(on)
}

// Enabled reports whether the pipelined schedule is active.
func Enabled() bool { return pipeOn.Load() }

// Chunks returns the configured chunk count.
func Chunks() int { return int(pipeChunks.Load()) }

func rsTag(name string, c int) string { return fmt.Sprintf("xch:rs:%s.c%d", name, c) }
func agTag(name string, c int) string { return fmt.Sprintf("xch:ag:%s.c%d", name, c) }

// pipelinedRSG is reduceScatterGather on a chunked schedule: each of the k
// model partitions is cut into C contiguous chunks, every message of the
// sequential path becomes C messages, and a forked sender process drains
// them through the out-NIC while the task process receives and folds — so
// chunk i+1 is on the wire while chunk i is being combined, and a superstep
// costs toward max(compute, comm) instead of compute + comm.
//
// Three invariants tie it bit-for-bit to the sequential path:
//
//   - Encoding: the dense/sparse decision and the total wire bytes are made
//     on whole partitions, exactly as the sequential path makes them; chunks
//     inherit the parent's choice (sparse.Enc.Slice), so the C chunk
//     messages charge exactly the bytes the one message would have.
//   - Fold order: within a chunk the received copies are combined in
//     ascending sender order, then scaled; chunks are folded in index order.
//     Per coordinate this is the identical float operation sequence as the
//     sequential fold, so the result is Float64bits-identical.
//   - AllGather causality: the sequential path decides the AllGather
//     encoding on the fully folded partition. With sparse exchange off that
//     decision is statically dense, so folded chunks stream out immediately
//     (full two-round overlap); with sparse exchange on, AllGather sends
//     wait for the last local fold so the adaptive decision sees the same
//     vector — the two rounds still overlap across executors, and the
//     Reduce-Scatter keeps its internal pipeline.
//
// Time the task process spends blocked waiting for a chunk is recorded as a
// Pipeline span (observe-never-charge): it shapes no result and no charge,
// but tells attribution how much overlap headroom is left.
func pipelinedRSG(p *des.Proc, ex *engine.Executor, execs []string, self int, name string, local, ref []float64, average bool, C int) {
	k := len(execs)
	dim := len(local)
	refRange := func(lo, hi int) []float64 {
		if ref == nil {
			return nil
		}
		return ref[lo:hi]
	}

	// Whole-partition encodings for Reduce-Scatter, identical to the
	// sequential path's.
	type peerEnc struct {
		j    int
		plen int
		enc  sparse.Enc
	}
	peers := make([]peerEnc, 0, k-1)
	for j := 0; j < k; j++ {
		if j == self {
			continue
		}
		lo, hi := vec.PartitionRange(dim, k, j)
		peers = append(peers, peerEnc{j: j, plen: hi - lo, enc: sparse.EncodeCopy(local[lo:hi], refRange(lo, hi))})
	}
	lo, hi := vec.PartitionRange(dim, k, self)
	own := append([]float64(nil), local[lo:hi]...)
	refOwn := refRange(lo, hi)
	streamAG := !sparse.Enabled()

	// All Reduce-Scatter sends are enqueued up front, chunk-major (every
	// peer's chunk c before any peer's chunk c+1), so receivers fold chunk c
	// while chunk c+1 serializes. The sender process transmits them FIFO;
	// the encodings are private copies, so they stay valid however long the
	// queue runs behind.
	sender := ex.StartSender(p, name)
	for c := 0; c < C; c++ {
		for _, pe := range peers {
			clo, chi := vec.PartitionRange(pe.plen, C, c)
			ce := pe.enc.Slice(clo, chi)
			sender.Send(execs[pe.j], rsTag(name, c), ce.WireBytes(),
				engine.Block{From: self, To: pe.j, Bytes: ce.WireBytes(), Payload: ce})
		}
	}

	foldAndGather(p, ex, execs, self, name, local, ref, average, C, sender, own, refOwn, streamAG)
}

// foldAndGather is the back half of the chunked schedule, shared by the
// pipelined collectives (pipelinedRSG, which has the whole vector up front,
// and overlapRSG, which produced it block by block while the Reduce-Scatter
// sends were already draining): the chunk-ordered receive-and-fold loop, the
// AllGather sends, and the AllGather receive loop. It closes the sender.
func foldAndGather(p *des.Proc, ex *engine.Executor, execs []string, self int, name string, local, ref []float64, average bool, C int, sender *engine.Sender, own, refOwn []float64, streamAG bool) {
	k := len(execs)
	dim := len(local)
	lo, hi := vec.PartitionRange(dim, k, self)
	refRange := func(lo, hi int) []float64 {
		if ref == nil {
			return nil
		}
		return ref[lo:hi]
	}
	// AllGather fan-out targets, ascending — the same order the sequential
	// path and the send loops above visit peers in.
	type peerDst struct{ j int }
	peers := make([]peerDst, 0, k-1)
	for j := 0; j < k; j++ {
		if j != self {
			peers = append(peers, peerDst{j: j})
		}
	}

	// Receive-and-fold loop: chunks in index order, each folded in ascending
	// sender order then scaled — the sequential fold's per-coordinate
	// operation sequence. Charges replay the arrival sequence on the task
	// process (the node has one modeled core; the sender process only ever
	// occupies the NIC), while the arithmetic overlaps on the offload pool.
	for c := 0; c < C; c++ {
		colo, cohi := vec.PartitionRange(hi-lo, C, c)
		tagc := rsTag(name, c)
		idle := p.Now()
		blocks := make([]engine.Block, 0, k-1)
		for len(blocks) < k-1 {
			msg := ex.Recv(p, tagc)
			blocks = append(blocks, msg.Payload.(engine.Block))
		}
		if now := p.Now(); now > idle {
			ex.Node().Observe(p, trace.Pipeline, idle, now, tagc)
		}
		folded := append([]engine.Block(nil), blocks...)
		sort.Slice(folded, func(a, b int) bool { return folded[a].From < folded[b].From })
		ownChunk := own[colo:cohi]
		var refChunk []float64
		if refOwn != nil {
			refChunk = refOwn[colo:cohi]
		}
		scratch := foldScratch(ex, folded, cohi-colo)
		h := par.Do(func() { fold(ownChunk, folded, scratch, refChunk, average, k) })
		for _, b := range blocks {
			kind := trace.Aggregate
			if b.Payload.(sparse.Enc).IsSparse() {
				kind = trace.Encode
			}
			ex.ChargeKind(p, float64(cohi-colo), kind, name)
		}
		h.Join()
		ex.PutVec(scratch)
		if streamAG {
			// Sparse exchange off: the AllGather encoding decision is
			// statically dense, so the folded chunk streams out right away.
			ce := sparse.EncodeShared(ownChunk, refChunk)
			for _, pe := range peers {
				sender.Send(execs[pe.j], agTag(name, c), ce.WireBytes(),
					engine.Block{From: self, To: pe.j, Bytes: ce.WireBytes(), Payload: ce})
			}
			copy(local[lo+colo:lo+cohi], ownChunk)
		}
	}
	if !streamAG {
		// Sparse exchange on: encode the fully folded partition — the same
		// vector the sequential path's adaptive decision sees — then chunk
		// the one encoding.
		ownEnc := sparse.EncodeShared(own, refOwn)
		for c := 0; c < C; c++ {
			colo, cohi := vec.PartitionRange(hi-lo, C, c)
			ce := ownEnc.Slice(colo, cohi)
			for _, pe := range peers {
				sender.Send(execs[pe.j], agTag(name, c), ce.WireBytes(),
					engine.Block{From: self, To: pe.j, Bytes: ce.WireBytes(), Payload: ce})
			}
		}
		copy(local[lo:hi], own)
	}
	sender.Close()

	// AllGather receive loop: pieces land in disjoint ranges of local, so
	// decode order within a chunk is immaterial; charges replay arrivals.
	for c := 0; c < C; c++ {
		tagc := agTag(name, c)
		idle := p.Now()
		blocks := make([]engine.Block, 0, k-1)
		for len(blocks) < k-1 {
			msg := ex.Recv(p, tagc)
			blocks = append(blocks, msg.Payload.(engine.Block))
		}
		if now := p.Now(); now > idle {
			ex.Node().Observe(p, trace.Pipeline, idle, now, tagc)
		}
		gathered := append([]engine.Block(nil), blocks...)
		decode := func() {
			for _, b := range gathered {
				plo, phi := vec.PartitionRange(dim, k, b.From)
				clo, chi := vec.PartitionRange(phi-plo, C, c)
				b.Payload.(sparse.Enc).DecodeInto(local[plo+clo:plo+chi], refRange(plo+clo, plo+chi))
			}
		}
		h := par.Do(decode)
		for _, b := range blocks {
			plo, phi := vec.PartitionRange(dim, k, b.From)
			clo, chi := vec.PartitionRange(phi-plo, C, c)
			kind := trace.Update
			if b.Payload.(sparse.Enc).IsSparse() {
				kind = trace.Encode
			}
			ex.ChargeKind(p, float64(chi-clo), kind, name)
		}
		h.Join()
	}
}
