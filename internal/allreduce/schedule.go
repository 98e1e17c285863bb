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

// allReduce is the one schedule behind every entry point: the front half
// produces (when overlapped), encodes and sends the Reduce-Scatter chunks;
// the back half folds each chunk as its k−1 copies arrive, then sends and
// installs the AllGather chunks. At C = 1 the task process sends for itself
// (a forked sender would let the fold charges overlap its own sends) and no
// Pipeline span — the observe-never-charge wait for a chunk — is recorded.
func allReduce(p *des.Proc, ex *engine.Executor, execs []string, self int, name string, local, ref []float64, average bool, prod Producer) {
	k := len(execs)
	if self < 0 || self >= k {
		panic(fmt.Sprintf("allreduce: self %d out of %d executors", self, k))
	}
	dim := len(local)
	C := 1 // never more chunks than the smallest partition has coordinates
	if k > 1 {
		C = max(1, min(Chunks(), dim/k))
	}
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
	peers := peersOf(self, k) // ascending: the AllGather fan-out
	order := peers            // the Reduce-Scatter visit order

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
	produce := func(c, lo, hi int) {}
	if overlap {
		ex.ChargeAsync(p, prod.PrepareWork(), prod.Prepare)
		recvBW := make([]float64, k)
		for j, nm := range execs {
			recvBW[j] = ex.PeerSpec(nm).RecvBW
		}
		order = RouteOrder(name, self, k, dim, ex.PeerSpec(execs[self]).SendBW, recvBW)
		// Each production charge carries an observe-never-charge feat-block
		// span, so the overlap shows in the gantt without double-booking.
		produce = func(c, lo, hi int) {
			start := p.Now()
			ex.ChargeAsync(p, prod.Work(lo, hi), func() { prod.Produce(lo, hi) })
			if now := p.Now(); now > start {
				ex.Node().Observe(p, obs.PhaseFeatBlock, start, now, fmt.Sprintf("fb:%s.c%d", name, c))
			}
		}
	}

	// Front half — Reduce-Scatter sends, chunk-major unless noted: every
	// peer's chunk c is queued before any peer's chunk c+1.
	if dense {
		// Each chunk is encoded — and shipped — the moment its block exists.
		for c := 0; c < C; c++ {
			tag := xchTag("rs", name, C, c)
			for _, j := range order {
				lo, hi := chunkRange(dim, k, C, j, c)
				produce(c, lo, hi)
				send(j, tag, sparse.EncodeCopy(local[lo:hi], nil))
			}
		}
	} else {
		// The adaptive decision needs whole partitions. Overlapped, a peer's
		// chunks ship once its partition is produced (partition-major);
		// otherwise every partition is ready up front.
		encs := make([]sparse.Enc, k)
		for _, j := range order {
			for c := 0; c < C; c++ {
				lo, hi := chunkRange(dim, k, C, j, c)
				produce(c, lo, hi)
			}
			lo, hi := vec.PartitionRange(dim, k, j)
			encs[j] = sparse.EncodeCopy(local[lo:hi], refRange(lo, hi))
			for c := 0; overlap && c < C; c++ {
				send(j, xchTag("rs", name, C, c), chunkOf(encs[j], C, c))
			}
		}
		for c := 0; !overlap && c < C; c++ {
			tag := xchTag("rs", name, C, c)
			for _, j := range order {
				send(j, tag, chunkOf(encs[j], C, c))
			}
		}
	}
	// Own partition last: it gates only the local fold, which waits for the peers anyway.
	for c := 0; c < C; c++ {
		lo, hi := chunkRange(dim, k, C, self, c)
		produce(c, lo, hi)
	}
	lo, hi := vec.PartitionRange(dim, k, self)
	own := append([]float64(nil), local[lo:hi]...)
	refOwn := refRange(lo, hi)

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
	sendAG := func(c int, e sparse.Enc) {
		tag := xchTag("ag", name, C, c)
		for _, j := range peers {
			send(j, tag, e)
		}
	}

	// Back half — receive and fold, chunks in index order. The arithmetic
	// overlaps on the offload pool while the charges replay the arrival
	// sequence on the task process (the node has one modeled core; a sender
	// process only ever occupies the NIC). A sparse copy's charge models its
	// decode, so it is traced as Encode.
	for c := 0; c < C; c++ {
		blocks := recv(xchTag("rs", name, C, c))
		folded := append([]engine.Block(nil), blocks...)
		sort.Slice(folded, func(a, b int) bool { return folded[a].From < folded[b].From })
		colo, cohi := vec.PartitionRange(hi-lo, C, c)
		ownChunk := own[colo:cohi]
		refChunk := refRange(lo+colo, lo+cohi)
		scratch := foldScratch(ex, folded, cohi-colo)
		h := par.Do(func() { fold(ownChunk, folded, scratch, refChunk, average, k) })
		for _, b := range blocks {
			ex.ChargeKind(p, float64(cohi-colo), phaseOf(b, obs.PhaseAgg), name)
		}
		h.Join()
		ex.PutVec(scratch)
		if dense {
			sendAG(c, sparse.EncodeShared(ownChunk, refChunk)) // streams out right away
		}
	}
	if !dense {
		// The adaptive decision must see the fully folded partition; its
		// one encoding is then chunked.
		ownEnc := sparse.EncodeShared(own, refOwn)
		for c := 0; c < C; c++ {
			sendAG(c, chunkOf(ownEnc, C, c))
		}
	}
	copy(local[lo:hi], own)
	if sender != nil {
		sender.Close()
	}

	// AllGather receive: pieces land in disjoint ranges of local, so decode
	// order is immaterial; the charges replay arrivals.
	for c := 0; c < C; c++ {
		gathered := recv(xchTag("ag", name, C, c))
		h := par.Do(func() {
			for _, b := range gathered {
				clo, chi := chunkRange(dim, k, C, b.From, c)
				b.Payload.(sparse.Enc).DecodeInto(local[clo:chi], refRange(clo, chi))
			}
		})
		for _, b := range gathered {
			clo, chi := chunkRange(dim, k, C, b.From, c)
			ex.ChargeKind(p, float64(chi-clo), phaseOf(b, obs.PhaseUpdate), name)
		}
		h.Join()
	}
}

// xchTag names round "rs" or "ag": xch:<round>:<name> unchunked, else with a
// .c<c> chunk suffix, by which internal/causal tells the schedules apart.
func xchTag(round, name string, C, c int) string {
	if C == 1 {
		return "xch:" + round + ":" + name
	}
	return fmt.Sprintf("xch:%s:%s.c%d", round, name, c)
}

// chunkRange returns the coordinates of chunk c of executor j's partition.
func chunkRange(dim, k, C, j, c int) (lo, hi int) {
	plo, phi := vec.PartitionRange(dim, k, j)
	clo, chi := vec.PartitionRange(phi-plo, C, c)
	return plo + clo, plo + chi
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

// peersOf returns every executor index but self, ascending.
func peersOf(self, k int) []int {
	peers := make([]int, 0, k-1)
	for j := 0; j < k; j++ {
		if j != self {
			peers = append(peers, j)
		}
	}
	return peers
}

// RouteOrder returns the order in which executor self produces and enqueues
// overlapped Reduce-Scatter traffic to its k−1 peers: slowest partition
// transfer first — coordinates over the bottleneck of self's send NIC and
// the peer's receive NIC — so the link gating the round drains earliest.
// Ties (every uniform cluster) break by a detrand permutation of the name
// and self, so repeated collectives do not favor low-indexed peers. Routing
// moves message timing only: the fold order stays canonical.
func RouteOrder(name string, self, k, dim int, sendBW float64, recvBW []float64) []int {
	peers := peersOf(self, k)
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
