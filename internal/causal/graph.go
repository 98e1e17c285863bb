// Package causal turns an obs event log (every live sink records its causal
// fields: process identities, message ids, forks and barriers) into a
// happens-before graph over every des/simnet occurrence: compute spans,
// message send and recv halves, fork points, and barrier releases. The graph is exact — node
// durations and edge lags reproduce the simulator's cost arithmetic — which
// is what makes the two consumers trustworthy:
//
//   - CriticalPath walks the longest chain in virtual time and attributes
//     the makespan, message by message, to phases, channels, hosts, and
//     idle gaps (propagation latency vs true wait);
//   - Retime replays the DAG under hypothetical scalings (comm ×½,
//     driver → 0, chunks → 2C, ...) to predict end-to-end virtual time
//     without rerunning the simulation. Replaying with the identity
//     scenario reproduces every original timestamp bit-for-bit, the
//     property the validation tests pin.
//
// The package only reads event logs; it records nothing and is never on a
// simulation code path, so the observe-never-charge contract holds
// trivially — the analyzers check it transitively anyway. A Graph reads
// the event log in place: each Node points at its event in the slice given
// to Build, so the caller keeps that slice alive, and does not modify it,
// for as long as it uses the graph.
package causal

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"mllibstar/internal/obs"
)

// NodeKind classifies a graph node.
type NodeKind int

// Node kinds.
const (
	KindSpan    NodeKind = iota // a compute/aggregate/update/... span on a host
	KindSend                    // a message's serialization through the sender's out-NIC
	KindRecv                    // a message's serialization through the receiver's in-NIC
	KindFork                    // a zero-duration fork point (cp-fork)
	KindBarrier                 // one participant's [arrival, release] at a barrier (cp-barrier)
)

func (k NodeKind) String() string {
	switch k {
	case KindSpan:
		return "span"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindFork:
		return "fork"
	case KindBarrier:
		return "barrier"
	}
	return "?"
}

// Edge is a happens-before dependency: the node's busy period cannot start
// before the predecessor's end plus Lag (the propagation latency on
// send→recv edges, zero otherwise).
type Edge struct {
	From int
	Lag  float64
}

// Node is one occurrence. It reads its event in place: the embedded
// *obs.Event points into the slice Build was given, so the recorded span
// (Start, End), the message fields and the notes are the event's own — and
// the event's Node field is the host, read through Host. Dur is the busy
// (service) duration, which for send nodes excludes out-NIC queueing — the
// recorded send span starts at the request, the busy period is its last Dur
// seconds. ResPred is the previous occupant of the node's FIFO resource
// (out-NIC or in-NIC), -1 when first or not a message.
type Node struct {
	*obs.Event
	ID   int
	Kind NodeKind
	Dur  float64

	Preds   []Edge
	ResPred int
}

// Host returns the machine the node ran on.
func (n *Node) Host() string { return n.Event.Node }

// resource is a FIFO resource a message node occupies: its host's out-NIC
// (kind KindSend) or in-NIC (kind KindRecv).
type resource struct {
	host string
	kind NodeKind
}

// resourceOf returns the FIFO resource of a node of the given kind on host;
// ok is false for kinds that occupy none.
func resourceOf(kind NodeKind, host string) (res resource, ok bool) {
	if kind != KindSend && kind != KindRecv {
		return res, false
	}
	return resource{host: host, kind: kind}, true
}

func (r resource) String() string {
	if r.kind == KindSend {
		return r.host + "/out"
	}
	return r.host + "/in"
}

// BusyStart returns when the node's busy period begins: for send nodes the
// span includes out-NIC queueing, so the busy period is the trailing Dur.
func (n *Node) BusyStart() float64 {
	if n.Kind == KindSend {
		return n.End - n.Dur
	}
	return n.Start
}

// Spec is one machine's rates, parsed from the cp-spec events.
type Spec struct {
	Rate   float64 // compute, work units/s
	SendBW float64 // out-NIC bytes/s
	RecvBW float64 // in-NIC bytes/s
}

// Graph is the happens-before graph of one run. Its nodes read the event
// log in place: the caller keeps the slice given to Build alive, and
// unmodified, for as long as it uses the graph.
type Graph struct {
	Nodes    []Node // indexed by ID
	Specs    map[string]Spec
	Latency  float64
	Overhead float64

	Groups     map[string][]int // barrier group key -> member node ids
	GroupOrder []string         // first-appearance order of Groups keys
	Procs      map[string][]int // process identity -> node ids in record order
	ProcOrder  []string         // first-appearance order of Procs keys
	SendByMID  map[int64]int    // message id -> send node id
}

// skip lists the event phases that are bookkeeping, not occurrences. The
// pipeline stall spans are skipped too: they observe time the task process
// spent blocked on a chunk, which the graph already derives from the recv
// edges — keeping them would double-count the gating. Feature-block spans
// likewise annotate gradient charges the graph already holds as compute
// occurrences; keeping them would overlap those charges and break replay.
func skip(ph obs.Phase) bool {
	switch ph {
	case obs.PhaseStep, obs.PhaseEval, obs.PhaseUpdates, obs.PhaseMeta,
		obs.PhaseStage, obs.PhasePipeline, obs.PhaseFeatBlock:
		return true
	}
	return false
}

// Build constructs the graph from an event log, which its nodes then read
// in place (see Graph). It errors when the log carries no causal enrichment
// at all (an older build or another tool recorded it); individually
// malformed events are tolerated here and flagged by Validate.
func Build(events []obs.Event) (*Graph, error) {
	g := &Graph{
		Specs:     map[string]Spec{},
		Groups:    map[string][]int{},
		Procs:     map[string][]int{},
		SendByMID: map[int64]int{},
	}
	enriched, count := false, 0
	for i := range events {
		switch e := &events[i]; {
		case e.Phase == obs.PhaseCausalSpec:
			enriched = true
			g.parseSpec(e.Node, e.Note)
		case !skip(e.Phase):
			enriched = enriched || e.Proc != ""
			count++
		}
	}
	if !enriched {
		return nil, fmt.Errorf("causal: log carries no causal enrichment (no event names its process): it was recorded by an older build or another tool")
	}
	g.Nodes = make([]Node, 0, count)
	for i := range events {
		e := &events[i]
		if e.Phase == obs.PhaseCausalSpec || skip(e.Phase) {
			continue
		}
		n := Node{Event: e, ID: len(g.Nodes), Kind: KindSpan, ResPred: -1}
		switch {
		case e.Phase == obs.PhaseCausalFork:
			n.Kind = KindFork
		case e.Phase == obs.PhaseCausalBarrier:
			n.Kind = KindBarrier
		case e.Dir == obs.DirSend:
			n.Kind = KindSend
		case e.Dir == obs.DirRecv:
			n.Kind = KindRecv
		}
		n.Dur = g.serviceDur(&n)
		g.Nodes = append(g.Nodes, n)
	}
	g.link()
	return g, nil
}

// parseSpec decodes a cp-spec note ("k=v;k=v"). An empty node names the
// network config, otherwise a machine.
func (g *Graph) parseSpec(node, note string) {
	sp := g.Specs[node]
	for _, kv := range strings.Split(note, ";") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			continue
		}
		switch k {
		case "latency":
			g.Latency = f
		case "overhead":
			g.Overhead = f
		case "rate":
			sp.Rate = f
		case "sbw":
			sp.SendBW = f
		case "rbw":
			sp.RecvBW = f
		}
	}
	if node != "" {
		g.Specs[node] = sp
	}
}

// serviceDur computes a node's busy duration. Send and recv durations are
// recomputed from bytes and the specs — the identical float expression the
// simulator used — so the what-if re-timer can re-derive them after a
// scenario changes message sizes. Without specs (a log from an older run)
// the recorded span length is used, which still makes identity replay exact
// for queue-free sends.
func (g *Graph) serviceDur(n *Node) float64 {
	switch n.Kind {
	case KindSend:
		if sp, ok := g.Specs[n.Host()]; ok && sp.SendBW > 0 {
			return (n.Bytes + g.Overhead) / sp.SendBW
		}
		return n.End - n.Start
	case KindRecv, KindSpan:
		return n.End - n.Start
	}
	return 0 // fork, barrier
}

// link wires the three edge families: program order per process (recv nodes
// are gated only by their message, not the process — in-NIC serialization
// proceeds while the process is busy — but everything after a Recv call is
// gated by the delivery), message edges send→recv lagged by the propagation
// latency, and FIFO resource chains through each NIC. Barrier groups get no
// explicit cross edges; CriticalPath and Retime resolve a member's release
// as the slowest member's arrival. A recv's one edge is its message's, every
// other node's come from its process chain, so the edges are counted first
// and every node's Preds is a window of one slab.
func (g *Graph) link() {
	forkOf := map[string]int{} // child proc identity -> fork node id
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Kind == KindFork && n.Grp != "" {
			forkOf[n.Grp] = i
		}
		if n.Kind == KindSend && n.MID != 0 {
			g.SendByMID[n.MID] = i
		}
		if n.Kind == KindBarrier && n.Grp != "" {
			if _, seen := g.Groups[n.Grp]; !seen {
				g.GroupOrder = append(g.GroupOrder, n.Grp)
			}
			g.Groups[n.Grp] = append(g.Groups[n.Grp], i)
		}
		if n.Proc != "" {
			if _, seen := g.Procs[n.Proc]; !seen {
				g.ProcOrder = append(g.ProcOrder, n.Proc)
			}
			g.Procs[n.Proc] = append(g.Procs[n.Proc], i)
		}
	}
	sendOf := func(n *Node) (int, bool) {
		if n.Kind != KindRecv || n.MID == 0 {
			return 0, false
		}
		s, ok := g.SendByMID[n.MID]
		return s, ok
	}
	// chains walks every process chain, handing each non-recv node the
	// edges it carries: the fork (first), then the previous non-recv node
	// and every recv since.
	chains := func(visit func(id int, carry []Edge)) {
		var carry []Edge
		for _, proc := range g.ProcOrder {
			carry = carry[:0]
			if f, ok := forkOf[proc]; ok {
				carry = append(carry, Edge{From: f})
			}
			for _, id := range g.Procs[proc] {
				if g.Nodes[id].Kind == KindRecv {
					// The process's next action waits on this delivery, but
					// the delivery itself is not gated by the process.
					carry = append(carry, Edge{From: id})
					continue
				}
				visit(id, carry)
				carry = append(carry[:0], Edge{From: id})
			}
		}
	}
	total := 0
	for i := range g.Nodes {
		if _, ok := sendOf(&g.Nodes[i]); ok {
			total++
		}
	}
	chains(func(_ int, carry []Edge) { total += len(carry) })
	slab := make([]Edge, 0, total)
	for i := range g.Nodes {
		if s, ok := sendOf(&g.Nodes[i]); ok {
			slab = append(slab, Edge{From: s, Lag: g.Latency})
			g.Nodes[i].Preds = slab[len(slab)-1 : len(slab) : len(slab)]
		}
	}
	chains(func(id int, carry []Edge) {
		if len(carry) > 0 {
			at := len(slab)
			slab = append(slab, carry...)
			g.Nodes[id].Preds = slab[at:len(slab):len(slab)]
		}
	})

	byRes := map[resource][]int{}
	var resOrder []resource
	for i := range g.Nodes {
		res, ok := resourceOf(g.Nodes[i].Kind, g.Nodes[i].Host())
		if !ok {
			continue
		}
		if _, seen := byRes[res]; !seen {
			resOrder = append(resOrder, res)
		}
		byRes[res] = append(byRes[res], i)
	}
	for _, res := range resOrder {
		ids := byRes[res]
		sort.SliceStable(ids, func(a, b int) bool { return before(&g.Nodes[ids[a]], &g.Nodes[ids[b]]) })
		for i := 1; i < len(ids); i++ {
			g.Nodes[ids[i]].ResPred = ids[i-1]
		}
	}
}

// eps is the slack used by Validate's timing checks; genuine causal gaps in
// the simulator are many orders of magnitude larger.
const eps = 1e-9

// Validate checks the graph's well-formedness: finite ordered spans, every
// recv matched to exactly one send and respecting wire causality, process
// chains monotone, every edge pointing strictly backward in (start, id)
// order — which proves acyclicity, since that order is the schedule Retime
// replays — and barrier groups releasing together at their slowest arrival.
func Validate(g *Graph) error {
	recvOfMID := map[int64]int{}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if math.IsNaN(n.Start) || math.IsNaN(n.End) || math.IsInf(n.Start, 0) || math.IsInf(n.End, 0) {
			return fmt.Errorf("causal: node %d (%s on %s): non-finite span [%g, %g]", n.ID, n.Kind, n.Host(), n.Start, n.End)
		}
		if n.End < n.Start {
			return fmt.Errorf("causal: node %d (%s on %s): end %g before start %g", n.ID, n.Kind, n.Host(), n.End, n.Start)
		}
		if n.Dur < 0 || n.Dur > n.End-n.Start+eps {
			return fmt.Errorf("causal: node %d (%s on %s): service %g outside span [%g, %g]", n.ID, n.Kind, n.Host(), n.Dur, n.Start, n.End)
		}
		if n.Kind == KindRecv {
			if n.MID == 0 {
				return fmt.Errorf("causal: node %d: recv on %s without a message id", n.ID, n.Host())
			}
			s, ok := g.SendByMID[n.MID]
			if !ok {
				return fmt.Errorf("causal: node %d: recv on %s has no matching send (mid %d)", n.ID, n.Host(), n.MID)
			}
			if prev, dup := recvOfMID[n.MID]; dup {
				return fmt.Errorf("causal: mid %d received twice (nodes %d and %d)", n.MID, prev, n.ID)
			}
			recvOfMID[n.MID] = n.ID
			if g.Nodes[s].End+g.Latency > n.Start+eps {
				return fmt.Errorf("causal: mid %d: recv at %g before send end %g + latency %g", n.MID, n.Start, g.Nodes[s].End, g.Latency)
			}
		}
		for _, e := range n.Preds {
			if e.From < 0 || e.From >= len(g.Nodes) {
				return fmt.Errorf("causal: node %d: edge from unknown node %d", n.ID, e.From)
			}
			p := &g.Nodes[e.From]
			if p.End+e.Lag > n.Start+eps && p.Grp == "" {
				return fmt.Errorf("causal: node %d (%s) starts at %g before predecessor %d ends at %g (+%g lag)",
					n.ID, n.Kind, n.Start, e.From, p.End, e.Lag)
			}
			if !before(p, n) {
				return fmt.Errorf("causal: edge %d -> %d runs forward in schedule order (cycle)", e.From, n.ID)
			}
		}
		if n.ResPred >= 0 {
			p := &g.Nodes[n.ResPred]
			if p.End > n.BusyStart()+eps {
				res, _ := resourceOf(n.Kind, n.Host())
				return fmt.Errorf("causal: node %d overlaps previous occupant %d of %s", n.ID, n.ResPred, res)
			}
			if !before(p, n) {
				return fmt.Errorf("causal: resource edge %d -> %d runs forward in schedule order", n.ResPred, n.ID)
			}
		}
	}
	for _, grp := range g.GroupOrder {
		ids := g.Groups[grp]
		release, slowest := math.Inf(-1), math.Inf(-1)
		for _, id := range ids {
			m := &g.Nodes[id]
			release = math.Max(release, m.End)
			slowest = math.Max(slowest, m.Start)
			if math.Abs(m.End-release) > eps {
				return fmt.Errorf("causal: barrier %s: member %d releases at %g, others at %g", grp, id, m.End, release)
			}
		}
		if math.Abs(slowest-release) > eps {
			return fmt.Errorf("causal: barrier %s: slowest arrival %g is not the release %g", grp, slowest, release)
		}
	}
	// Per-process chains must be monotone: each non-recv node starts no
	// earlier than the previous non-recv node ended.
	for _, proc := range g.ProcOrder {
		last := -1
		for _, id := range g.Procs[proc] {
			n := &g.Nodes[id]
			if n.Kind == KindRecv {
				continue
			}
			if last >= 0 && g.Nodes[last].End > n.Start+eps {
				return fmt.Errorf("causal: process %s: node %d starts at %g before node %d ends at %g",
					proc, n.ID, n.Start, last, g.Nodes[last].End)
			}
			last = id
		}
	}
	return nil
}

// before reports whether a sorts strictly before b in the schedule order
// Retime replays: (start, id).
func before(a, b *Node) bool {
	//mlstar:nolint floateq -- exact compare intentional: equal starts fall through to the id tie-break
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.ID < b.ID
}

// Analyze is Build followed by Validate.
func Analyze(events []obs.Event) (*Graph, error) {
	g, err := Build(events)
	if err != nil {
		return nil, err
	}
	if err := Validate(g); err != nil {
		return nil, err
	}
	return g, nil
}

// Makespan returns the latest end time in the graph (zero when empty).
func (g *Graph) Makespan() float64 {
	m := 0.0
	for i := range g.Nodes {
		if e := g.Nodes[i].End; e > m {
			m = e
		}
	}
	return m
}
