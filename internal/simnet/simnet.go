// Package simnet models a cluster of nodes connected by a network, on top
// of the discrete-event kernel in package des.
//
// Each node has a compute engine with a configurable rate, and full-duplex
// NICs: an outbound link and an inbound link, each a FIFO resource with its
// own bandwidth. A message from A to B serializes through A's outbound link
// (occupying the sending process), propagates for the network latency, then
// serializes through B's inbound link before it is delivered. Because the
// inbound link is FIFO, k nodes sending m bytes each to the same receiver
// take k·m/bandwidth at the receiver — the incast effect that makes the
// Spark driver the bottleneck the MLlib* paper calls B1/B2.
//
// All sends and receives are accounted, so experiments can assert traffic
// invariants such as the paper's "2·k·m bytes per communication step".
//
// Message sizes are whatever the sender charges, not the in-memory size of
// the Go payload: with sparse model-delta exchange enabled
// (internal/sparse), model messages are charged at their index–value
// encoded size (12·nnz instead of 8·m bytes), so simulated traffic and
// virtual time reflect the compression while the payload Go slices are
// untouched. See ARCHITECTURE.md for the full byte-accounting rules.
package simnet

import (
	"fmt"

	"mllibstar/internal/des"
	"mllibstar/internal/obs"
	"mllibstar/internal/par"
)

// NodeSpec describes one machine in the cluster.
type NodeSpec struct {
	Name        string
	ComputeRate float64 // work units per second (one unit ≈ one nonzero processed)
	SendBW      float64 // outbound NIC bandwidth, bytes/s
	RecvBW      float64 // inbound NIC bandwidth, bytes/s
}

// Config describes cluster-wide network parameters.
type Config struct {
	Latency       float64 // one-way propagation delay per message, seconds
	OverheadBytes float64 // fixed framing overhead added to every message
}

// Message is a delivered network message.
type Message struct {
	From, To  string
	Tag       string
	Bytes     float64 // payload size (excluding framing overhead)
	Payload   any
	SentAt    float64 // when the sender started transmitting
	DeliverAt float64 // when the receiver NIC finished receiving

	recvStart float64      // when the receiver NIC started receiving
	phase     obs.Phase    // collective phase, from the tag or SendPhase
	channel   obs.Channel  // logical link class, from the tag
	enc       obs.Encoding // wire encoding, from the payload
	mid       int64        // causal message id pairing send and recv events; 0 without a sink
}

// Node is one simulated machine.
type Node struct {
	spec  NodeSpec
	net   *Network
	out   *des.Resource
	in    *des.Resource
	boxes map[string]*des.Queue[*Message]

	bytesSent float64
	bytesRecv float64
}

// Network is a set of nodes sharing latency/overhead parameters, the run's
// telemetry sink, and traffic accounting.
type Network struct {
	sim   *des.Sim
	cfg   Config
	nodes map[string]*Node
	order []string
	sink  *obs.Sink

	totalBytes float64
	totalMsgs  int
}

// New builds a network over sim from the given node specs. sink is the run's
// telemetry sink, which every hook of the run records into; nil records
// nothing.
func New(sim *des.Sim, cfg Config, specs []NodeSpec, sink *obs.Sink) *Network {
	n := &Network{sim: sim, cfg: cfg, nodes: make(map[string]*Node, len(specs)), sink: sink}
	for _, sp := range specs {
		if sp.ComputeRate <= 0 || sp.SendBW <= 0 || sp.RecvBW <= 0 {
			panic(fmt.Sprintf("simnet: invalid spec for node %q: %+v", sp.Name, sp))
		}
		if _, dup := n.nodes[sp.Name]; dup {
			panic(fmt.Sprintf("simnet: duplicate node %q", sp.Name))
		}
		n.nodes[sp.Name] = &Node{
			spec:  sp,
			net:   n,
			out:   des.NewResource(sim, sp.Name+"/out"),
			in:    des.NewResource(sim, sp.Name+"/in"),
			boxes: map[string]*des.Queue[*Message]{},
		}
		n.order = append(n.order, sp.Name)
	}
	if sink != nil {
		// Make the event log self-describing for the what-if re-timer: it
		// recomputes message service times from bytes and these rates when
		// a scenario changes message sizes (chunk splits, shard merges).
		sink.CausalSpec("", fmt.Sprintf("latency=%g;overhead=%g", cfg.Latency, cfg.OverheadBytes))
		for _, name := range n.order {
			sp := n.nodes[name].spec
			sink.CausalSpec(name, fmt.Sprintf("rate=%g;sbw=%g;rbw=%g", sp.ComputeRate, sp.SendBW, sp.RecvBW))
		}
	}
	return n
}

// Sink returns the run's telemetry sink (possibly nil).
func (n *Network) Sink() *obs.Sink { return n.sink }

// Node returns the named node, panicking if it does not exist — an unknown
// node name is always a wiring bug.
func (n *Network) Node(name string) *Node {
	nd, ok := n.nodes[name]
	if !ok {
		panic(fmt.Sprintf("simnet: unknown node %q", name))
	}
	return nd
}

// TotalBytes returns the sum of payload bytes of every message sent so far.
func (n *Network) TotalBytes() float64 { return n.totalBytes }

// TotalMessages returns the number of messages sent so far.
func (n *Network) TotalMessages() int { return n.totalMsgs }

// Name returns the node's name.
func (nd *Node) Name() string { return nd.spec.Name }

// Spec returns the node's spec.
func (nd *Node) Spec() NodeSpec { return nd.spec }

// BytesSent returns total payload bytes this node has transmitted.
func (nd *Node) BytesSent() float64 { return nd.bytesSent }

// BytesRecv returns total payload bytes this node has received.
func (nd *Node) BytesRecv() float64 { return nd.bytesRecv }

func (nd *Node) box(tag string) *des.Queue[*Message] {
	b, ok := nd.boxes[tag]
	if !ok {
		b = des.NewQueue[*Message](nd.net.sim, nd.spec.Name+"/"+tag)
		nd.boxes[tag] = b
	}
	return b
}

// Compute blocks p while the node performs work units of computation and
// records a Compute span. It returns the elapsed virtual time.
func (nd *Node) Compute(p *des.Proc, work float64) float64 {
	return nd.ComputeKind(p, work, obs.PhaseCompute, "")
}

// ComputeKind is Compute with an explicit phase and note, used to
// distinguish aggregation and model-update work from gradient computation.
func (nd *Node) ComputeKind(p *des.Proc, work float64, ph obs.Phase, note string) float64 {
	if work < 0 {
		panic(fmt.Sprintf("simnet: negative work %g on %s", work, nd.spec.Name))
	}
	d := work / nd.spec.ComputeRate
	start := p.Now()
	p.Wait(d)
	nd.net.sink.SpanProc(nd.spec.Name, ph, start, p.Now(), note, p)
	return d
}

// Observe records a span over [start, end] — already-elapsed virtual time —
// in the telemetry without consuming any: observe-never-charge.
// The pipelined collectives use it to book the time their task process
// spent blocked on a chunk as a Pipeline span, making the remaining overlap
// headroom visible to attribution while leaving every charge, byte count,
// and result untouched. p fixes which process the observation describes;
// end must not lie in the future.
func (nd *Node) Observe(p *des.Proc, ph obs.Phase, start, end float64, note string) {
	if end > p.Now() {
		panic(fmt.Sprintf("simnet: Observe span ending at %g ahead of now %g on %s", end, p.Now(), nd.spec.Name))
	}
	if end <= start {
		return
	}
	nd.net.sink.SpanProc(nd.spec.Name, ph, start, end, note, p)
}

// ComputeAsyncKind overlaps a pure numeric closure with its virtual-time
// charge: fn is submitted to the offload pool (package par), the calling
// process is charged work on the simulated clock exactly as ComputeKind
// would, and fn is joined before returning. While the process waits out the
// charge in virtual time, the des kernel runs other processes, whose own
// submitted closures then execute concurrently on real OS threads — that
// overlap is the entire wall-clock win, and it cannot change any result
// because fn's outputs are not observed until after the join.
//
// fn must be pure in the offload sense: it may read only state no
// concurrently runnable process writes, write only buffers this task owns,
// and never touch the simulation. work must be known without running fn
// (structural work — e.g. nonzeros in the partition); when it is not, use
// the engine's Task.Pure prefetch instead, which charges the closure's
// returned work.
func (nd *Node) ComputeAsyncKind(p *des.Proc, work float64, ph obs.Phase, note string, fn func()) float64 {
	h := par.Do(fn)
	d := nd.ComputeKind(p, work, ph, note)
	h.Join()
	return d
}

// Send transmits a message from this node to the named destination. The
// calling process (which must be running on this node) is blocked while the
// message serializes through the outbound NIC; propagation and the
// receiver's inbound serialization happen asynchronously. Delivery order per
// (receiver, tag) mailbox follows inbound-NIC completion order.
//
// The message's telemetry phase and channel are classified from the tag
// (obs.ClassifyTag); use SendPhase when the tag is ambiguous — the
// parameter-server request mailbox carries both pulls and pushes.
func (nd *Node) Send(p *des.Proc, to, tag string, bytes float64, payload any) {
	ph, ch := obs.ClassifyTag(tag)
	nd.sendPhase(p, to, tag, bytes, payload, ph, ch)
}

// SendPhase is Send with an explicit telemetry phase, for senders whose tag
// alone does not identify the collective.
func (nd *Node) SendPhase(p *des.Proc, to, tag string, bytes float64, payload any, ph obs.Phase) {
	_, ch := obs.ClassifyTag(tag)
	nd.sendPhase(p, to, tag, bytes, payload, ph, ch)
}

func (nd *Node) sendPhase(p *des.Proc, to, tag string, bytes float64, payload any, ph obs.Phase, ch obs.Channel) {
	if bytes < 0 {
		panic(fmt.Sprintf("simnet: negative message size %g", bytes))
	}
	dst := nd.net.Node(to)
	enc := obs.EncodingOf(payload)
	wire := bytes + nd.net.cfg.OverheadBytes
	sentAt := p.Now()
	_, outEnd := nd.out.Reserve(wire / nd.spec.SendBW)
	p.WaitUntil(outEnd)
	sink := nd.net.sink
	mid := sink.NewMID()
	sink.MessageProc(nd.spec.Name, ph, ch, obs.DirSend, enc, bytes, sentAt, outEnd, tag, p, mid)

	arrive := outEnd + nd.net.cfg.Latency
	rs, re := dst.in.ReserveAt(arrive, wire/dst.spec.RecvBW)
	msg := &Message{
		From: nd.spec.Name, To: to, Tag: tag, Bytes: bytes, Payload: payload,
		SentAt: sentAt, DeliverAt: re, recvStart: rs,
		phase: ph, channel: ch, enc: enc, mid: mid,
	}
	nd.bytesSent += bytes
	dst.bytesRecv += bytes
	nd.net.totalBytes += bytes
	nd.net.totalMsgs++
	dst.box(tag).Put(msg)
}

// Recv blocks p until a message with the given tag has been fully received
// by this node's inbound NIC, records the Recv span, and returns it.
func (nd *Node) Recv(p *des.Proc, tag string) *Message {
	msg := nd.box(tag).Get(p)
	p.WaitUntil(msg.DeliverAt)
	nd.net.sink.MessageProc(nd.spec.Name, msg.phase, msg.channel, obs.DirRecv, msg.enc, msg.Bytes, msg.recvStart, msg.DeliverAt, tag, p, msg.mid)
	return msg
}

// RecvN receives n messages with the given tag and returns them in delivery
// order.
func (nd *Node) RecvN(p *des.Proc, tag string, count int) []*Message {
	out := make([]*Message, 0, count)
	for len(out) < count {
		out = append(out, nd.Recv(p, tag))
	}
	return out
}

// Uniform returns count node specs with identical rates, named prefix0..N-1.
func Uniform(prefix string, count int, computeRate, bw float64) []NodeSpec {
	specs := make([]NodeSpec, count)
	for i := range specs {
		specs[i] = NodeSpec{
			Name:        fmt.Sprintf("%s%d", prefix, i),
			ComputeRate: computeRate,
			SendBW:      bw,
			RecvBW:      bw,
		}
	}
	return specs
}
