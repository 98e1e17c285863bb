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
// trivially — the analyzers check it transitively anyway.
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

// Node is one occurrence. Start/End are the recorded span; Dur is the busy
// (service) duration, which for send nodes excludes out-NIC queueing — the
// recorded send span starts at the request, the busy period is its last Dur
// seconds. ResPred is the previous occupant of the node's FIFO resource
// (out-NIC or in-NIC), -1 when first or not a message.
type Node struct {
	ID    int
	Kind  NodeKind
	Proc  string // des process identity ("name#id"); "" when the log predates causal enrichment
	Host  string
	Phase obs.Phase
	Chan  obs.Channel
	Enc   obs.Encoding
	Bytes float64
	Start float64
	End   float64
	Dur   float64
	Step  int
	Note  string // mailbox tag for messages, charge note for spans
	MID   int64
	Grp   string // barrier group key ("name@gen")
	Res   string // FIFO resource occupied ("host/out", "host/in"), "" otherwise

	Preds   []Edge
	ResPred int
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

// Graph is the happens-before graph of one run.
type Graph struct {
	Nodes    []*Node
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

// Build constructs the graph from an event log. It errors when the log
// carries no causal enrichment at all (an older build or another tool
// recorded it); individually
// malformed events are tolerated here and flagged by Validate.
func Build(events []obs.Event) (*Graph, error) {
	g := &Graph{
		Specs:     map[string]Spec{},
		Groups:    map[string][]int{},
		Procs:     map[string][]int{},
		SendByMID: map[int64]int{},
	}
	enriched := false
	for i := range events {
		e := &events[i]
		if e.Phase == obs.PhaseCausalSpec {
			enriched = true
			g.parseSpec(e.Node, e.Note)
			continue
		}
		if skip(e.Phase) {
			continue
		}
		n := &Node{
			ID: len(g.Nodes), Proc: e.Proc, Host: e.Node, Phase: e.Phase,
			Chan: e.Chan, Enc: e.Enc, Bytes: e.Bytes, Start: e.Start, End: e.End,
			Step: e.Step, Note: e.Note, MID: e.MID, Grp: e.Grp, ResPred: -1,
		}
		switch {
		case e.Phase == obs.PhaseCausalFork:
			n.Kind = KindFork
		case e.Phase == obs.PhaseCausalBarrier:
			n.Kind = KindBarrier
		case e.Dir == obs.DirSend:
			n.Kind = KindSend
			n.Res = e.Node + "/out"
		case e.Dir == obs.DirRecv:
			n.Kind = KindRecv
			n.Res = e.Node + "/in"
		default:
			n.Kind = KindSpan
		}
		if e.Proc != "" {
			enriched = true
		}
		g.Nodes = append(g.Nodes, n)
	}
	if !enriched {
		return nil, fmt.Errorf("causal: log carries no causal enrichment (no event names its process): it was recorded by an older build or another tool")
	}
	for _, n := range g.Nodes {
		n.Dur = g.serviceDur(n)
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
		if sp, ok := g.Specs[n.Host]; ok && sp.SendBW > 0 {
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
// as the slowest member's arrival.
func (g *Graph) link() {
	forkOf := map[string]int{} // child proc identity -> fork node id
	for _, n := range g.Nodes {
		if n.Kind == KindFork && n.Grp != "" {
			forkOf[n.Grp] = n.ID
		}
		if n.Kind == KindSend && n.MID != 0 {
			g.SendByMID[n.MID] = n.ID
		}
		if n.Kind == KindBarrier && n.Grp != "" {
			if _, seen := g.Groups[n.Grp]; !seen {
				g.GroupOrder = append(g.GroupOrder, n.Grp)
			}
			g.Groups[n.Grp] = append(g.Groups[n.Grp], n.ID)
		}
		if n.Proc != "" {
			if _, seen := g.Procs[n.Proc]; !seen {
				g.ProcOrder = append(g.ProcOrder, n.Proc)
			}
			g.Procs[n.Proc] = append(g.Procs[n.Proc], n.ID)
		}
	}
	for _, n := range g.Nodes {
		if n.Kind == KindRecv && n.MID != 0 {
			if s, ok := g.SendByMID[n.MID]; ok {
				n.Preds = append(n.Preds, Edge{From: s, Lag: g.Latency})
			}
		}
	}
	for _, proc := range g.ProcOrder {
		var carry []Edge
		if f, ok := forkOf[proc]; ok {
			carry = append(carry, Edge{From: f})
		}
		for _, id := range g.Procs[proc] {
			n := g.Nodes[id]
			if n.Kind == KindRecv {
				// The process's next action waits on this delivery, but the
				// delivery itself is not gated by the process.
				carry = append(carry, Edge{From: id})
				continue
			}
			n.Preds = append(n.Preds, carry...)
			carry = append(carry[:0], Edge{From: id})
		}
	}
	byRes := map[string][]int{}
	var resOrder []string
	for _, n := range g.Nodes {
		if n.Res == "" {
			continue
		}
		if _, seen := byRes[n.Res]; !seen {
			resOrder = append(resOrder, n.Res)
		}
		byRes[n.Res] = append(byRes[n.Res], n.ID)
	}
	for _, res := range resOrder {
		ids := byRes[res]
		sort.SliceStable(ids, func(a, b int) bool {
			na, nb := g.Nodes[ids[a]], g.Nodes[ids[b]]
			//mlstar:nolint floateq -- exact compare intentional: equal starts fall through to the id tie-break
			if na.Start != nb.Start {
				return na.Start < nb.Start
			}
			return na.ID < nb.ID
		})
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
	for _, n := range g.Nodes {
		if math.IsNaN(n.Start) || math.IsNaN(n.End) || math.IsInf(n.Start, 0) || math.IsInf(n.End, 0) {
			return fmt.Errorf("causal: node %d (%s on %s): non-finite span [%g, %g]", n.ID, n.Kind, n.Host, n.Start, n.End)
		}
		if n.End < n.Start {
			return fmt.Errorf("causal: node %d (%s on %s): end %g before start %g", n.ID, n.Kind, n.Host, n.End, n.Start)
		}
		if n.Dur < 0 || n.Dur > n.End-n.Start+eps {
			return fmt.Errorf("causal: node %d (%s on %s): service %g outside span [%g, %g]", n.ID, n.Kind, n.Host, n.Dur, n.Start, n.End)
		}
		if n.Kind == KindRecv {
			if n.MID == 0 {
				return fmt.Errorf("causal: node %d: recv on %s without a message id", n.ID, n.Host)
			}
			s, ok := g.SendByMID[n.MID]
			if !ok {
				return fmt.Errorf("causal: node %d: recv on %s has no matching send (mid %d)", n.ID, n.Host, n.MID)
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
			p := g.Nodes[e.From]
			if p.End+e.Lag > n.Start+eps && p.Grp == "" {
				return fmt.Errorf("causal: node %d (%s) starts at %g before predecessor %d ends at %g (+%g lag)",
					n.ID, n.Kind, n.Start, e.From, p.End, e.Lag)
			}
			if !before(p, n) {
				return fmt.Errorf("causal: edge %d -> %d runs forward in schedule order (cycle)", e.From, n.ID)
			}
		}
		if n.ResPred >= 0 {
			p := g.Nodes[n.ResPred]
			if p.End > n.BusyStart()+eps {
				return fmt.Errorf("causal: node %d overlaps previous occupant %d of %s", n.ID, n.ResPred, n.Res)
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
			m := g.Nodes[id]
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
			n := g.Nodes[id]
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
	for _, n := range g.Nodes {
		if n.End > m {
			m = n.End
		}
	}
	return m
}
