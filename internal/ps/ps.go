// Package ps implements a parameter-server substrate in the style of
// Petuum and Angel: the model is range-partitioned across server processes,
// workers pull the full model and push deltas, and a consistency controller
// gates pulls according to the Stale Synchronous Parallel (SSP) protocol —
// staleness 0 is BSP, a large staleness approximates ASP.
//
// Server processes are co-located with worker nodes (the common production
// deployment, and what keeps the hardware identical to the Spark cluster in
// comparisons): server s owns the s-th contiguous range of the model and
// serves requests over the node's simulated NIC, so pull/push traffic and
// incast effects are modelled exactly like all other communication.
//
// A push may carry only the coordinates the worker touched (PushTouched), as
// pooled (index, value) chunks the owning server applies sparsely; it is
// still charged as the dense range on the wire and on the server, because
// SSP timing is the semantics under study. Skipping an
// untouched coordinate is exact: its delta is +0, and a server model starts
// at +0 and changes only by addition, so it never holds the −0 that adding
// +0 would turn into +0.
package ps

import (
	"fmt"
	"slices"

	"mllibstar/internal/des"
	"mllibstar/internal/obs"
	"mllibstar/internal/simnet"
	"mllibstar/internal/vec"
)

// Config describes a parameter-server deployment.
type Config struct {
	Dim          int     // model dimension
	Servers      int     // number of server processes (first Servers nodes host one each)
	Workers      int     // number of workers participating in the SSP clock
	Staleness    int     // SSP slack: a pull at clock c waits until min(clock) ≥ c − Staleness
	CombineScale float64 // scale applied to pushed deltas: 1 = summation (Petuum), 1/Workers = averaging (Petuum*)
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if c.Dim <= 0 || c.Servers <= 0 || c.Workers <= 0 {
		return fmt.Errorf("ps: dim=%d servers=%d workers=%d must be positive", c.Dim, c.Servers, c.Workers)
	}
	if c.Staleness < 0 {
		return fmt.Errorf("ps: staleness %d", c.Staleness)
	}
	if c.CombineScale <= 0 {
		return fmt.Errorf("ps: combine scale %g", c.CombineScale)
	}
	return nil
}

// requestBytes is the wire size of a pull request.
const requestBytes = 64

// PS is a running parameter-server deployment.
//
// Every vector on a push path comes from one of the deployment's pools and
// changes owner with the message: Push copies each range of the delta into a
// pooled buffer, and PushTouched the touched coordinates into a pooled sparse
// chunk, that the owning server recycles once it has applied it. A pull
// copies once: the request carries the caller's dst, and each server copies
// its range straight into it when it serves the request — the program point
// of the snapshot the reply used to carry — while the reply carries only the
// server's index. The caller is blocked in PullInto until the last reply
// arrives, so nobody observes dst half-filled. Nothing a caller passes in or
// gets back is ever kept by a server: dst is written only while its PullInto
// runs, and a pushed delta is copied before it is sent.
type PS struct {
	cfg        Config
	net        *simnet.Network
	hosts      []string // node names hosting servers, in server order
	serverTags []string // request mailbox tag on each server's host node
	replyTags  []string // pull-reply mailbox tag of each worker
	pool       *vec.Pool
	outbox     [][]*chunk // per worker, the sparse chunk of each server while PushTouched fills them
	// chunks holds the free sparse chunks, their capacity kept. Only
	// simulation processes push and serve, and they never run at once, so
	// unlike pool it needs no lock.
	chunks []*chunk
}

// pullReq asks a server for its range; the server copies the range into
// dst[lo:hi] when it serves the request.
type pullReq struct {
	worker  int
	clock   int
	replyTo string
	dst     []float64 // the pulling worker's whole model buffer
}

// pushReq carries one server's part of a delta, which the server owns on
// receipt: the whole range in a pooled buffer (Push), or the touched
// coordinates in a pooled sparse chunk (PushTouched) — possibly none, since
// the message also advances the worker's clock.
type pushReq struct {
	worker int
	clock  int
	vals   []float64 // dense: the range's delta; nil when sparse is set
	sparse *chunk
}

// chunk is a sparse push payload: vals[i] is the delta of range-relative
// coordinate idx[i], the indices distinct.
type chunk struct {
	idx  []int32
	vals []float64
}

// rangeReply tells the pulling worker that a server has written its range
// into the worker's dst; the wire charge is the range's bytes all the same.
type rangeReply struct {
	server int
}

// server owns one contiguous model range.
type server struct {
	ps      *PS
	index   int
	node    *simnet.Node
	model   []float64 // the owned range
	clocks  []int     // last pushed clock per worker
	pending []pullReq
}

// New spawns Servers server processes on the first Servers of the given
// node names and returns the deployment handle. The model starts at zero.
func New(sim *des.Sim, net *simnet.Network, nodeNames []string, cfg Config) (*PS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Servers > len(nodeNames) {
		return nil, fmt.Errorf("ps: %d servers but only %d nodes", cfg.Servers, len(nodeNames))
	}
	p := &PS{
		cfg:        cfg,
		net:        net,
		hosts:      nodeNames[:cfg.Servers],
		serverTags: make([]string, cfg.Servers),
		replyTags:  make([]string, cfg.Workers),
		pool:       vec.NewPool(),
		outbox:     make([][]*chunk, cfg.Workers),
	}
	for w := range p.replyTags {
		p.replyTags[w] = fmt.Sprintf("ps.pull.w%d", w)
		p.outbox[w] = make([]*chunk, cfg.Servers)
	}
	for s := 0; s < cfg.Servers; s++ {
		p.serverTags[s] = fmt.Sprintf("ps.req%d", s)
		lo, hi := Range(cfg.Dim, cfg.Servers, s)
		srv := &server{
			ps:     p,
			index:  s,
			node:   net.Node(nodeNames[s]),
			model:  make([]float64, hi-lo),
			clocks: make([]int, cfg.Workers),
		}
		sim.Spawn(fmt.Sprintf("ps:server%d", s), srv.serve)
	}
	return p, nil
}

// Range returns the contiguous model coordinate range [lo, hi) owned by
// server i of k over a dim-coordinate model — the canonical range
// partitioning of this package.
func Range(dim, k, i int) (lo, hi int) { return vec.PartitionRange(dim, k, i) }

// serve is the server loop: apply pushes immediately, gate pulls on SSP.
func (s *server) serve(p *des.Proc) {
	for {
		msg := s.node.Recv(p, s.ps.serverTags[s.index])
		switch req := msg.Payload.(type) {
		case pushReq:
			// Applying a delta costs one unit per coordinate in the range,
			// however few of them a sparse chunk carries.
			s.node.ComputeKind(p, float64(len(s.model)), obs.PhaseUpdate, "ps push")
			scale := s.ps.cfg.CombineScale
			if c := req.sparse; c != nil {
				// vec.AddScaled's expression, at the touched coordinates.
				for i, j := range c.idx {
					s.model[j] += scale * c.vals[i]
				}
				s.ps.putChunk(c)
			} else {
				vec.AddScaled(s.model, req.vals, scale)
				s.ps.pool.Put(req.vals)
			}
			if req.clock > s.clocks[req.worker] {
				s.clocks[req.worker] = req.clock
			}
			s.release(p)
		case pullReq:
			// The SSP gate: the slowest worker is at most Staleness behind.
			if slices.Min(s.clocks) >= req.clock-s.ps.cfg.Staleness {
				s.reply(p, req)
			} else {
				s.pending = append(s.pending, req)
			}
		default:
			panic(fmt.Sprintf("ps: unexpected request %T", msg.Payload))
		}
	}
}

// release answers every pending pull that the SSP gate now admits. Only
// this server's process moves s.clocks, so the gate's minimum is taken once.
func (s *server) release(p *des.Proc) {
	slowest := slices.Min(s.clocks)
	kept := s.pending[:0]
	for _, req := range s.pending {
		if slowest >= req.clock-s.ps.cfg.Staleness {
			s.reply(p, req)
		} else {
			kept = append(kept, req)
		}
	}
	s.pending = kept
}

// reply copies the server's range into the puller's dst, as of now, and
// sends the reply that charges those bytes.
func (s *server) reply(p *des.Proc, req pullReq) {
	lo, _ := Range(s.ps.cfg.Dim, s.ps.cfg.Servers, s.index)
	copy(req.dst[lo:], s.model)
	s.node.SendPhase(p, req.replyTo, s.ps.replyTags[req.worker],
		float64(len(s.model))*8, rangeReply{server: s.index}, obs.PhasePSPull)
}

// PullInto fetches the full model into dst (length Dim) for the given worker
// at the given clock, blocking (per SSP) until every server's gate admits the
// request. The calling process must run on the named node. The servers
// write their ranges into dst as they serve the request, and dst stays the
// caller's once PullInto returns: a worker that keeps one pull buffer for
// the whole run pulls without allocating.
func (p *PS) PullInto(proc *des.Proc, nodeName string, worker, clock int, dst []float64) {
	if len(dst) != p.cfg.Dim {
		panic(fmt.Sprintf("ps: pull into dim %d != %d", len(dst), p.cfg.Dim))
	}
	node := p.net.Node(nodeName)
	replyTag := p.replyTags[worker]
	for s := 0; s < p.cfg.Servers; s++ {
		node.SendPhase(proc, p.hosts[s], p.serverTags[s],
			requestBytes, pullReq{worker: worker, clock: clock, replyTo: nodeName, dst: dst}, obs.PhasePSPull)
	}
	for i := 0; i < p.cfg.Servers; i++ {
		node.Recv(proc, replyTag)
	}
}

// Pull is PullInto with a freshly allocated result, which the caller owns.
func (p *PS) Pull(proc *des.Proc, nodeName string, worker, clock int) []float64 {
	w := make([]float64, p.cfg.Dim)
	p.PullInto(proc, nodeName, worker, clock, w)
	return w
}

// Push scatters the worker's delta to the owning servers and advances the
// worker's clock. Deltas are applied server-side scaled by CombineScale.
// Each chunk is copied before it is sent, so the caller may reuse delta as
// soon as Push returns.
func (p *PS) Push(proc *des.Proc, nodeName string, worker, clock int, delta []float64) {
	p.push(proc, nodeName, worker, clock, delta, nil, true)
}

// PushTouched is Push for a delta that is +0 at every coordinate outside
// touched (distinct indices; nil or empty means none). Only the touched
// coordinates are copied and applied, so the host cost is len(touched), not
// Dim; the simulated cost is Push's, and so is the resulting model.
func (p *PS) PushTouched(proc *des.Proc, nodeName string, worker, clock int, delta []float64, touched []int32) {
	p.push(proc, nodeName, worker, clock, delta, touched, false)
}

// push sends every server its part of delta: the whole range when dense,
// else the sparse chunk of the touched coordinates it owns. Every server gets
// a message, an empty chunk included — it carries the clock advance — and the
// wire charge is the whole range either way.
func (p *PS) push(proc *des.Proc, nodeName string, worker, clock int, delta []float64, touched []int32, dense bool) {
	if len(delta) != p.cfg.Dim {
		panic(fmt.Sprintf("ps: delta dim %d != %d", len(delta), p.cfg.Dim))
	}
	out := p.outbox[worker]
	if !dense {
		for s := range out {
			out[s] = p.getChunk()
		}
		for _, j := range touched {
			s, lo := p.owner(int(j))
			c := out[s]
			c.idx = append(c.idx, j-int32(lo))
			c.vals = append(c.vals, delta[j])
		}
	}
	node := p.net.Node(nodeName)
	for s := 0; s < p.cfg.Servers; s++ {
		lo, hi := Range(p.cfg.Dim, p.cfg.Servers, s)
		var vals []float64
		if dense {
			vals = p.pool.Copy(delta[lo:hi])
		}
		node.SendPhase(proc, p.hosts[s], p.serverTags[s],
			float64(hi-lo)*8, pushReq{worker: worker, clock: clock, vals: vals, sparse: out[s]}, obs.PhasePSPush)
		out[s] = nil
	}
}

// owner returns the server whose Range holds coordinate j, and that range's
// start: Range inverted, the first Dim mod Servers ranges being one longer.
func (p *PS) owner(j int) (s, lo int) {
	base, rem := p.cfg.Dim/p.cfg.Servers, p.cfg.Dim%p.cfg.Servers
	long := rem * (base + 1)
	if j < long {
		s = j / (base + 1)
		return s, s * (base + 1)
	}
	s = rem + (j-long)/base
	return s, long + (s-rem)*base
}

// getChunk takes an empty sparse chunk from the free list, or a new one.
func (p *PS) getChunk() *chunk {
	if n := len(p.chunks); n > 0 {
		c := p.chunks[n-1]
		p.chunks = p.chunks[:n-1]
		return c
	}
	return &chunk{}
}

// putChunk empties an applied chunk and returns it, capacity kept, to the
// free list.
func (p *PS) putChunk(c *chunk) {
	c.idx, c.vals = c.idx[:0], c.vals[:0]
	p.chunks = append(p.chunks, c)
}
