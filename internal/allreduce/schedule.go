package allreduce

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"mllibstar/internal/des"
	"mllibstar/internal/detrand"
	"mllibstar/internal/engine"
	"mllibstar/internal/obs"
	"mllibstar/internal/par"
	"mllibstar/internal/sparse"
	"mllibstar/internal/vec"
)

// allReduce executes Plan: the Reduce-Scatter sends (each block produced
// first when overlapped), the folds as each chunk's k−1 copies arrive, the
// AllGather sends and installs. At C = 1 the task process sends for itself
// (a forked sender would let the fold charges overlap its own sends) and no
// Pipeline span — the observe-never-charge wait for a chunk — is recorded.
func allReduce(p *des.Proc, ex *engine.Executor, execs []string, self int, name string, local, ref []float64, average bool, prod Producer) {
	k := len(execs)
	if self < 0 || self >= k {
		panic(fmt.Sprintf("allreduce: self %d out of %d executors", self, k))
	}
	dim := len(local)
	C := EffectiveChunks(Chunks(), dim, k)
	overlap := prod != nil && C > 1 && OverlapEnabled()
	if prod != nil && !overlap {
		ex.ChargeAsync(p, prod.PrepareWork()+prod.Work(0, dim), func() {
			prod.Prepare()
			prod.Produce(0, dim)
		})
	}
	if k == 1 {
		return // single executor: the local vector already is the result
	}
	dense := !sparse.Enabled() // the encoding decision is statically dense
	refRange := func(lo, hi int) []float64 {
		if ref == nil {
			return nil
		}
		return ref[lo:hi]
	}

	var sender *engine.Sender
	if C > 1 {
		sender = ex.StartSender(p, name)
	}
	send := func(j int, tag string, e sparse.Enc) {
		b := engine.Block{From: self, To: j, Bytes: e.WireBytes(), Payload: e}
		if sender == nil {
			ex.Send(p, execs[j], tag, b.Bytes, b)
		} else {
			sender.Send(execs[j], tag, b.Bytes, b)
		}
	}
	var order []int // the Reduce-Scatter visit order; nil is ascending
	if overlap {
		ex.ChargeAsync(p, prod.PrepareWork(), prod.Prepare)
		recvBW := make([]float64, k)
		for j, nm := range execs {
			recvBW[j] = ex.PeerSpec(nm).RecvBW
		}
		order = RouteOrder(name, self, k, dim, ex.PeerSpec(execs[self]).SendBW, recvBW)
	}
	tags := make([]string, 2*C) // round-major
	for c := 0; c < C; c++ {
		tags[c], tags[C+c] = xchTag(RS, name, C, c), xchTag(AG, name, C, c)
	}
	recv := func(tag string) []engine.Block {
		idle := p.Now()
		blocks := make([]engine.Block, 0, k-1)
		for len(blocks) < k-1 {
			blocks = append(blocks, ex.Recv(p, tag).Payload.(engine.Block))
		}
		if now := p.Now(); C > 1 && now > idle {
			ex.Node().Observe(p, obs.PhasePipeline, idle, now, tag)
		}
		return blocks
	}

	lo, hi := vec.PartitionRange(dim, k, self)
	var own []float64     // own partition, folded in place; AllGather payloads share it
	var encs []sparse.Enc // sparse: each partition's one encoding, which its chunks slice
	if !dense {
		encs = make([]sparse.Enc, k)
	}
	agChunk, agEnc := -1, sparse.Enc{} // the AllGather chunk every peer is sent
	for s := range Plan(k, dim, C, self, order, overlap, dense) {
		tag := tags[int(s.Round)*C+s.Chunk]
		switch s.Op {
		case Produce:
			// Each production charge carries an observe-never-charge
			// feat-block span, so the overlap shows in the gantt without
			// double-booking.
			start := p.Now()
			ex.ChargeAsync(p, prod.Work(s.Lo, s.Hi), func() { prod.Produce(s.Lo, s.Hi) })
			if now := p.Now(); now > start {
				ex.Node().Observe(p, obs.PhaseFeatBlock, start, now, fmt.Sprintf("fb:%s.c%d", name, s.Chunk))
			}
		case Send:
			switch {
			case s.Round == AG:
				if s.Chunk != agChunk {
					agChunk = s.Chunk
					if dense {
						agEnc = sparse.EncodeShared(own[s.Lo-lo:s.Hi-lo], refRange(s.Lo, s.Hi))
					} else {
						agEnc = chunkOf(encs[self], C, s.Chunk)
					}
				}
				send(s.Peer, tag, agEnc)
			case dense: // encoded the moment its block exists
				send(s.Peer, tag, sparse.EncodeCopy(local[s.Lo:s.Hi], nil))
			default: // the adaptive decision needs the whole partition
				if s.Chunk == 0 {
					plo, phi := vec.PartitionRange(dim, k, s.Peer)
					encs[s.Peer] = sparse.EncodeCopy(local[plo:phi], refRange(plo, phi))
				}
				send(s.Peer, tag, chunkOf(encs[s.Peer], C, s.Chunk))
			}
		case Fold:
			// The arithmetic overlaps on the offload pool while the charges
			// replay the arrival sequence on the task process (the node has
			// one modeled core; a sender process only ever occupies the
			// NIC). A sparse copy's charge models its decode, so it is
			// traced as Encode.
			if s.Chunk == 0 {
				own = append([]float64(nil), local[lo:hi]...)
			}
			blocks := recv(tag)
			folded := append([]engine.Block(nil), blocks...)
			sort.Slice(folded, func(a, b int) bool { return folded[a].From < folded[b].From })
			ownChunk, refChunk := own[s.Lo-lo:s.Hi-lo], refRange(s.Lo, s.Hi)
			scratch := foldScratch(ex, folded, s.Hi-s.Lo)
			h := par.Do(func() { fold(ownChunk, folded, scratch, refChunk, average, k) })
			for _, b := range blocks {
				ex.ChargeKind(p, float64(s.Hi-s.Lo), phaseOf(b, obs.PhaseAgg), name)
			}
			h.Join()
			ex.PutVec(scratch)
			if !dense && s.Chunk == C-1 {
				// The adaptive decision must see the fully folded partition.
				encs[self] = sparse.EncodeShared(own, refRange(lo, hi))
			}
		case Gather:
			if s.Chunk == 0 {
				copy(local[lo:hi], own)
				if sender != nil {
					sender.Close()
				}
			}
			// Pieces land in disjoint ranges of local, so decode order is
			// immaterial; the charges replay arrivals.
			gathered := recv(tag)
			h := par.Do(func() {
				for _, b := range gathered {
					clo, chi := chunkRange(dim, k, C, b.From, s.Chunk)
					b.Payload.(sparse.Enc).DecodeInto(local[clo:chi], refRange(clo, chi))
				}
			})
			for _, b := range gathered {
				clo, chi := chunkRange(dim, k, C, b.From, s.Chunk)
				ex.ChargeKind(p, float64(chi-clo), phaseOf(b, obs.PhaseUpdate), name)
			}
			h.Join()
		}
	}
}

// chunkOf returns chunk c of a whole-partition encoding, dense/sparse alike.
func chunkOf(e sparse.Enc, C, c int) sparse.Enc {
	if C == 1 {
		return e
	}
	lo, hi := vec.PartitionRange(e.Len(), C, c)
	return e.Slice(lo, hi)
}

// phaseOf is a received block's charge phase: encode if sparse, else dense.
func phaseOf(b engine.Block, dense obs.Phase) obs.Phase {
	if b.IsSparse() {
		return obs.PhaseEncode
	}
	return dense
}

// foldScratch returns the one pooled vector a fold decodes its sparse copies
// through, or nil when every copy is dense and read in place. The caller
// PutVecs it after joining the fold.
func foldScratch(ex *engine.Executor, copies []engine.Block, n int) []float64 {
	if slices.ContainsFunc(copies, engine.Block.IsSparse) {
		return ex.GetVec(n)
	}
	return nil
}

// fold adds the received copies of one chunk into own in the order given —
// ascending sender — then scales. A sparse copy is added densely after
// decoding into scratch: the coordinates it does not list still take part
// (−0 + 0 is +0), which keeps the result bit-identical to the dense exchange.
func fold(own []float64, chunks []engine.Block, scratch, ref []float64, average bool, k int) {
	for _, b := range chunks {
		vec.AddScaled(own, b.Payload.(sparse.Enc).Decoded(scratch, ref), 1)
	}
	if average {
		vec.Scale(own, 1/float64(k))
	}
}

// RouteOrder returns the order in which executor self produces and enqueues
// overlapped Reduce-Scatter traffic to its k−1 peers: slowest partition
// transfer first — coordinates over the bottleneck of self's send NIC and
// the peer's receive NIC — so the link gating the round drains earliest.
// Ties (every uniform cluster) break by a detrand permutation of the name
// and self, so repeated collectives do not favor low-indexed peers. Routing
// moves message timing only: the fold order stays canonical.
func RouteOrder(name string, self, k, dim int, sendBW float64, recvBW []float64) []int {
	peers := make([]int, 0, k-1)
	for j := 0; j < k; j++ {
		if j != self {
			peers = append(peers, j)
		}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", name, self)
	perm := detrand.Perm(int64(h.Sum64()), k)
	cost := func(j int) float64 {
		lo, hi := vec.PartitionRange(dim, k, j)
		bw := sendBW
		if j < len(recvBW) && recvBW[j] > 0 && (bw <= 0 || recvBW[j] < bw) {
			bw = recvBW[j]
		}
		if bw <= 0 {
			bw = 1
		}
		return float64(hi-lo) / bw
	}
	sort.SliceStable(peers, func(a, b int) bool {
		ca, cb := cost(peers[a]), cost(peers[b])
		//mlstar:nolint floateq -- exact compare intentional: equal-cost peers (every uniform cluster) must fall through to the deterministic permutation tie-break
		if ca != cb {
			return ca > cb
		}
		return perm[peers[a]] < perm[peers[b]]
	})
	return peers
}
