// Package serve is the online scoring tier: a sharded GLM scoring service
// over trained checkpoints, running inside the des/simnet deterministic
// harness like every training system in this repository.
//
// # Topology
//
// A deployment is one router process plus k shard processes, each on its own
// simulated node. The model's coordinate space is range-partitioned across
// the shards with ps.BlockAlignedRange on data.ScoreBlock boundaries — the
// same contiguous-range ownership the parameter server uses, aligned so that
// every fold block of the canonical scoring order (see internal/data/score.go)
// is owned by exactly one shard. Clients send sparse scoring requests to the
// router; the router batches them under a virtual-time latency budget, fans
// each batch's nonzero features to the owning shards, folds the returned
// per-(row, block) partial margins in ascending block order, and replies to
// each client.
//
// Because the margin is defined as the canonical block fold, the score is a
// pure function of (model, request): bit-identical for 1, 4, or 16 shards,
// and bit-identical to data.Margin evaluated on one machine.
//
// # Batching
//
// The router blocks for the first request, then admits more until either the
// batch reaches Config.BatchMax or the virtual-time budget (Config.
// BatchBudget seconds after the first admission) expires — whichever comes
// first. The deadline drain uses simnet.RecvUntil, so a batch closes at the
// exact budget instant even when no further request ever arrives.
//
// # Hot model swap
//
// Shards hold two weight slots. Installing a new checkpoint (Deployment.
// Install) streams each shard's range into the slot the *next* epoch maps to
// — never the slot in-flight batches are scoring — and waits for every
// shard's ack. Activation (Deployment.Swap) then sends a single swap message
// through the router's own request mailbox, so the epoch bump lands at one
// exact position in the request stream: every request batched before it
// scores on the old epoch, every request after on the new, and no request is
// dropped or sees a torn mix of the two. Batches are scored synchronously
// (the router waits for all shard partials before admitting the next batch),
// which is what makes the two-slot scheme race-free.
//
// # Cost model
//
// Requests cost 16+12·nnz bytes, shard sub-batches 16+4·rows+12·nnz, shard
// partial replies 16+12·partials, client replies 24 bytes, installs
// 16+8·range, control messages 16. The router charges one work unit per
// routed nonzero (obs.PhaseAgg, "route") and one per folded partial
// (obs.PhaseAgg, "fold"); shards charge one per scored nonzero
// (obs.PhaseCompute, "score") and one per installed coordinate
// (obs.PhaseUpdate, "install"). Request latency, batch sizes, and swaps are recorded through
// obs serve events, which observe and never charge.
package serve

import (
	"fmt"

	"mllibstar/internal/data"
	"mllibstar/internal/des"
	"mllibstar/internal/glm"
	"mllibstar/internal/obs"
	"mllibstar/internal/ps"
	"mllibstar/internal/simnet"
	"mllibstar/internal/vec"
)

// Config describes a serving deployment.
type Config struct {
	Dim         int     // model dimension
	BatchMax    int     // flush a batch when it reaches this many requests
	BatchBudget float64 // virtual seconds from first admission to forced flush
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if c.Dim <= 0 {
		return fmt.Errorf("serve: dim %d", c.Dim)
	}
	if c.BatchMax <= 0 {
		return fmt.Errorf("serve: batch max %d", c.BatchMax)
	}
	if c.BatchBudget < 0 {
		return fmt.Errorf("serve: batch budget %g", c.BatchBudget)
	}
	return nil
}

// Names lists the serving nodes: the router and the shard hosts in shard
// order. Clients are not part of the deployment; any node may send requests.
type Names struct {
	Router string
	Shards []string
}

// Mailbox tags. ReqTag is exported because clients (the load generator and
// the CLI harness) send requests directly to the router's mailbox.
const (
	ReqTag        = "serve.req"
	partTag       = "serve.part"
	installAckTag = "serve.ack.install"
	swapAckTag    = "serve.ack.swap"
)

func shardTag(i int) string { return fmt.Sprintf("serve.shard%d", i) }

// Wire sizes, following the byte-accounting rules in ARCHITECTURE.md: sparse
// features cost 12 bytes per nonzero (int32 index + float64 value), partials
// 12 bytes each (two int32 + the float64 sum), and every message carries a
// 16-byte application header on top of simnet's framing overhead.
const (
	headerBytes = 16
	replyBytes  = 24 // seq + epoch + margin
	ctlBytes    = 16 // swap, acks
)

// scoreReq is one client scoring request: a sparse feature vector with
// ascending indices, plus the reply route.
type scoreReq struct {
	replyTo  string
	replyTag string
	seq      int
	ind      []int32
	val      []float64
}

// swapReq activates a staged epoch. It travels through ReqTag so activation
// is totally ordered with the request stream.
type swapReq struct{ epoch int64 }

// shardBatch is the slice of one batch owned by a shard: per-row features
// filtered to the shard's coordinate range (indices stay global), with the
// originating batch row of each filtered row.
type shardBatch struct {
	epoch  int64
	rowIDs []int32
	rows   []glm.Example
}

// shardReply returns a shard's per-(batch row, block) partial margins.
type shardReply struct {
	shard int
	parts []data.BlockPartial
}

// scoreRep is the router's reply to one request.
type scoreRep struct {
	seq    int
	epoch  int64
	margin float64
}

// installReq carries one shard's range of a staged checkpoint.
type installReq struct {
	epoch int64
	vals  []float64
}

// ackMsg acknowledges an install or a swap.
type ackMsg struct{ epoch int64 }

// Deployment is a running serving tier. The control methods (Install, Swap)
// must be called from a process running on the router node — the controller
// is co-located with the router, like ps servers are with workers.
type Deployment struct {
	cfg   Config
	net   *simnet.Network
	names Names

	epoch  int64 // controller-side epoch: what Swap has activated so far
	staged bool  // an Install is waiting for its Swap
}

// shard owns one block-aligned coordinate range and two weight slots; a
// batch stamped epoch e scores slots[e%2], an install for epoch e+1 writes
// slots[(e+1)%2] — always the slot no in-flight batch is reading.
type shard struct {
	d     *Deployment
	index int
	node  *simnet.Node
	lo    int
	slots [2][]float64
}

// New spawns the shard and router processes and returns the deployment
// handle. weights is the epoch-0 checkpoint, installed before any traffic
// (loading the initial model is part of bringing the deployment up, not of
// serving, so it charges nothing).
func New(sim *des.Sim, net *simnet.Network, names Names, cfg Config, weights []float64) (*Deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(names.Shards) == 0 {
		return nil, fmt.Errorf("serve: no shard nodes")
	}
	if len(weights) != cfg.Dim {
		return nil, fmt.Errorf("serve: %d weights for dim %d", len(weights), cfg.Dim)
	}
	d := &Deployment{cfg: cfg, net: net, names: names}
	for s := range names.Shards {
		lo, hi := d.shardRange(s)
		sh := &shard{d: d, index: s, node: net.Node(names.Shards[s]), lo: lo}
		sh.slots[0] = append(make([]float64, 0, hi-lo), weights[lo:hi]...)
		sh.slots[1] = make([]float64, hi-lo)
		sim.Spawn(fmt.Sprintf("serve:shard%d", s), sh.run)
	}
	sim.Spawn("serve:router", d.route)
	return d, nil
}

// Epoch returns the last activated epoch.
func (d *Deployment) Epoch() int64 { return d.epoch }

// shardRange returns shard s's coordinate range.
func (d *Deployment) shardRange(s int) (lo, hi int) {
	return ps.BlockAlignedRange(d.cfg.Dim, len(d.names.Shards), s, data.ScoreBlock)
}

// Install stages a checkpoint as the next epoch: each shard's range is sent
// to its inactive slot, and Install returns (with the staged epoch) once
// every shard has acked. Traffic continues scoring the current epoch
// throughout. The calling process must run on the router node. Installing
// twice without an intervening Swap panics — the second install would
// overwrite the slot the current epoch is scoring from.
func (d *Deployment) Install(p *des.Proc, weights []float64) int64 {
	if d.staged {
		panic("serve: Install while a previous install is still staged (Swap first)")
	}
	if len(weights) != d.cfg.Dim {
		panic(fmt.Sprintf("serve: installing %d weights for dim %d", len(weights), d.cfg.Dim))
	}
	next := d.epoch + 1
	node := d.net.Node(d.names.Router)
	for s := range d.names.Shards {
		lo, hi := d.shardRange(s)
		vals := append([]float64(nil), weights[lo:hi]...)
		node.Send(p, d.names.Shards[s], shardTag(s),
			headerBytes+8*float64(hi-lo), installReq{epoch: next, vals: vals})
	}
	for range d.names.Shards {
		msg := node.Recv(p, installAckTag)
		if ack := msg.Payload.(ackMsg); ack.epoch != next {
			panic(fmt.Sprintf("serve: install ack for epoch %d, staged %d", ack.epoch, next))
		}
	}
	d.staged = true
	return next
}

// Swap activates the staged epoch by sending a single swap message through
// the router's request mailbox: the epoch bump lands at one exact position
// in the request stream. Swap returns (with the new epoch) once the router
// acks the activation. The calling process must run on the router node.
func (d *Deployment) Swap(p *des.Proc) int64 {
	if !d.staged {
		panic("serve: Swap without a staged Install")
	}
	next := d.epoch + 1
	node := d.net.Node(d.names.Router)
	node.Send(p, d.names.Router, ReqTag, ctlBytes, swapReq{epoch: next})
	msg := node.Recv(p, swapAckTag)
	if ack := msg.Payload.(ackMsg); ack.epoch != next {
		panic(fmt.Sprintf("serve: swap ack for epoch %d, want %d", ack.epoch, next))
	}
	d.epoch, d.staged = next, false
	return next
}

// ScoreSync sends one scoring request from the given client node and blocks
// until the reply is delivered, returning the margin and the epoch that
// scored it — the single-request client used by the checkpoint round-trip
// tests and harnesses. The calling process must run on the client node.
// ind must be ascending; the features are snapshot-copied before the send,
// so the caller may reuse its buffers.
func (d *Deployment) ScoreSync(p *des.Proc, clientNode string, seq int, ind []int32, val []float64) (margin float64, epoch int64) {
	node := d.net.Node(clientNode)
	tag := "serve.rep." + clientNode
	req := scoreReq{
		replyTo:  clientNode,
		replyTag: tag,
		seq:      seq,
		ind:      append([]int32(nil), ind...),
		val:      append([]float64(nil), val...),
	}
	sent := p.Now()
	node.Send(p, d.names.Router, ReqTag, headerBytes+12*float64(len(ind)), req)
	rep := node.Recv(p, tag).Payload.(scoreRep)
	if rep.seq != seq {
		panic(fmt.Sprintf("serve: ScoreSync got reply for seq %d, want %d", rep.seq, seq))
	}
	d.net.Sink().ServeRequest(clientNode, sent, p.Now(), rep.epoch)
	return rep.margin, rep.epoch
}

// route is the router loop: batch under the latency budget, score, reply.
func (d *Deployment) route(p *des.Proc) {
	node := d.net.Node(d.names.Router)
	epoch := int64(0)
	for {
		msg := node.Recv(p, ReqTag)
		if sw, ok := msg.Payload.(swapReq); ok {
			// Swap arriving on an idle router: nothing in flight to flush.
			epoch = d.activate(p, node, sw, epoch)
			continue
		}
		admitted := p.Now()
		deadline := admitted + d.cfg.BatchBudget
		batch := []scoreReq{msg.Payload.(scoreReq)}
		reason := "deadline"
		var pendingSwap *swapReq
		for len(batch) < d.cfg.BatchMax {
			m := node.RecvUntil(p, ReqTag, deadline)
			if m == nil {
				break
			}
			if sw, ok := m.Payload.(swapReq); ok {
				pendingSwap = &sw
				reason = "swap"
				break
			}
			batch = append(batch, m.Payload.(scoreReq))
		}
		if len(batch) == d.cfg.BatchMax {
			reason = "full"
		}
		d.scoreBatch(p, node, batch, epoch)
		d.net.Sink().ServeBatch(node.Name(), admitted, p.Now(), len(batch), reason)
		if pendingSwap != nil {
			epoch = d.activate(p, node, *pendingSwap, epoch)
		}
	}
}

// activate applies a swap message: bump the router's epoch and ack the
// controller. The bump itself is a pointer-free integer assignment — the
// atomic "install is a single epoch bump" of the design.
func (d *Deployment) activate(p *des.Proc, node *simnet.Node, sw swapReq, cur int64) int64 {
	if sw.epoch != cur+1 {
		panic(fmt.Sprintf("serve: swap to epoch %d from %d", sw.epoch, cur))
	}
	d.net.Sink().ServeSwap(node.Name(), p.Now(), sw.epoch)
	node.Send(p, d.names.Router, swapAckTag, ctlBytes, ackMsg{epoch: sw.epoch})
	return sw.epoch
}

// scoreBatch fans a batch to the owning shards, folds the partials in
// canonical order, and replies to every request's client.
func (d *Deployment) scoreBatch(p *des.Proc, node *simnet.Node, batch []scoreReq, epoch int64) {
	k := len(d.names.Shards)
	type sub struct {
		rowIDs []int32
		rows   []glm.Example
		nnz    int
	}
	subs := make([]sub, k)
	totalNNZ := 0
	for r, req := range batch {
		totalNNZ += len(req.ind)
		pos := 0
		for s := 0; s < k && pos < len(req.ind); s++ {
			_, hi := d.shardRange(s)
			start := pos
			for pos < len(req.ind) && int(req.ind[pos]) < hi {
				pos++
			}
			if pos == start {
				continue
			}
			// Fresh copies: the sub-batch crosses to another simulated
			// machine and must not alias the request buffers.
			x := vec.Sparse{
				Ind: append([]int32(nil), req.ind[start:pos]...),
				Val: append([]float64(nil), req.val[start:pos]...),
			}
			subs[s].rowIDs = append(subs[s].rowIDs, int32(r))
			subs[s].rows = append(subs[s].rows, glm.Example{X: x})
			subs[s].nnz += pos - start
		}
	}
	// Routing charges one unit per nonzero examined, like aggregation does.
	node.ComputeKind(p, float64(totalNNZ), obs.PhaseAgg, "route")
	sent := 0
	for s := range subs {
		if len(subs[s].rows) == 0 {
			continue
		}
		bytes := headerBytes + 4*float64(len(subs[s].rows)) + 12*float64(subs[s].nnz)
		node.Send(p, d.names.Shards[s], shardTag(s), bytes,
			shardBatch{epoch: epoch, rowIDs: subs[s].rowIDs, rows: subs[s].rows})
		sent++
	}
	perShard := make([][]data.BlockPartial, k)
	totalParts := 0
	for i := 0; i < sent; i++ {
		rep := node.Recv(p, partTag).Payload.(shardReply)
		perShard[rep.shard] = rep.parts
		totalParts += len(rep.parts)
	}
	node.ComputeKind(p, float64(totalParts), obs.PhaseAgg, "fold")
	// Shard ranges tile the coordinate space in shard order and each shard
	// emits blocks ascending per row, so visiting shards in index order
	// reassembles each row's partials in ascending block order — the
	// canonical fold, independent of reply arrival order.
	perRow := make([][]data.BlockPartial, len(batch))
	for s := 0; s < k; s++ {
		for _, part := range perShard[s] {
			perRow[part.Row] = append(perRow[part.Row], part)
		}
	}
	for r, req := range batch {
		node.Send(p, req.replyTo, req.replyTag, replyBytes,
			scoreRep{seq: req.seq, epoch: epoch, margin: data.FoldMargin(perRow[r])})
	}
}

// run is the shard loop: install checkpoints into the inactive slot, score
// sub-batches against the slot their epoch maps to.
func (sh *shard) run(p *des.Proc) {
	for {
		msg := sh.node.Recv(p, shardTag(sh.index))
		switch req := msg.Payload.(type) {
		case installReq:
			sh.node.ComputeKind(p, float64(len(req.vals)), obs.PhaseUpdate, "install")
			copy(sh.slots[req.epoch%2], req.vals)
			sh.node.Send(p, sh.d.names.Router, installAckTag, ctlBytes, ackMsg{epoch: req.epoch})
		case shardBatch:
			v := data.ViewOf(req.rows)
			w := sh.slots[req.epoch%2]
			sh.node.ComputeKind(p, float64(v.NNZ()), obs.PhaseCompute, "score")
			parts := data.BlockMargins(v, w, sh.lo, nil)
			for i := range parts {
				parts[i].Row = req.rowIDs[parts[i].Row]
			}
			sh.node.Send(p, sh.d.names.Router, partTag,
				headerBytes+12*float64(len(parts)), shardReply{shard: sh.index, parts: parts})
		default:
			panic(fmt.Sprintf("serve: unexpected shard message %T", msg.Payload))
		}
	}
}
