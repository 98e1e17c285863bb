package causal

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mllibstar/internal/obs"
)

// PathStep is one node on the critical path together with how it was gated.
// Busy is the node's service time on the path; Latency is the propagation
// lag of the message edge that gated it (zero otherwise); Wait is the gap
// between the gating predecessor's readiness and the node's busy start —
// exogenous time (pacing, timers, startup) no predecessor explains.
type PathStep struct {
	Node    int
	Busy    float64
	Latency float64
	Wait    float64
	Via     string // "proc", "msg", "nic", "barrier", "start"
}

// Path is a critical path through the graph: the chain of occurrences whose
// busy times, message latencies, and exogenous waits sum exactly to the
// makespan. Steps run in time order.
type Path struct {
	G        *Graph
	Steps    []PathStep
	Makespan float64
	Busy     float64
	Latency  float64
	Wait     float64
}

// CriticalPath extracts the critical path: starting from the node that ends
// last, it repeatedly walks to the gating predecessor — the one whose
// readiness determined the node's busy start. Barrier members route to the
// slowest member of their generation, whose arrival set the release time.
// The decomposition telescopes: Makespan = Busy + Latency + Wait exactly
// (up to float association), which TestCritPathAccounting pins.
func CriticalPath(g *Graph) *Path {
	p := &Path{G: g}
	if len(g.Nodes) == 0 {
		return p
	}
	end := &g.Nodes[0]
	for i := range g.Nodes {
		if n := &g.Nodes[i]; n.End > end.End {
			end = n
		}
	}
	p.Makespan = end.End

	onPath := make([]bool, len(g.Nodes)) // cycle guard; Validate proves acyclic, fuzz inputs may not be validated
	var rev []PathStep
	n := end
	for n != nil && !onPath[n.ID] {
		onPath[n.ID] = true
		if n.Kind == KindBarrier {
			// The release is the slowest member's arrival: if that is some
			// other member, hop to it; either way, continue from the slowest
			// member's own gating (its arrival is a plain chain-gated start).
			m := n
			for _, id := range g.Groups[n.Grp] {
				c := &g.Nodes[id]
				//mlstar:nolint floateq -- exact compare intentional: equal arrivals fall through to the id tie-break
				if c.Start > m.Start || (c.Start == m.Start && c.ID < m.ID) {
					m = c
				}
			}
			if m.ID != n.ID {
				rev = append(rev, PathStep{Node: n.ID, Via: "barrier"})
				n = m
				continue
			}
		}
		step := PathStep{Node: n.ID, Busy: n.Dur}
		// The gating predecessor: the latest-ready among causal preds and,
		// for message nodes, the previous occupant of the NIC.
		gate := math.Inf(-1)
		var next *Node
		for _, e := range n.Preds {
			ready := g.Nodes[e.From].End + e.Lag
			//mlstar:nolint floateq -- exact compare intentional: equal readiness falls through to the id tie-break
			if ready > gate || (ready == gate && next != nil && e.From < next.ID) {
				gate, next = ready, &g.Nodes[e.From]
				if e.Lag > 0 {
					step.Via, step.Latency = "msg", e.Lag
				} else {
					step.Via, step.Latency = "proc", 0
				}
			}
		}
		if n.ResPred >= 0 {
			if ready := g.Nodes[n.ResPred].End; ready > gate {
				gate, next = ready, &g.Nodes[n.ResPred]
				step.Via, step.Latency = "nic", 0
			}
		}
		if next == nil {
			step.Via = "start"
			step.Wait = n.BusyStart()
		} else {
			step.Wait = math.Max(0, n.BusyStart()-gate)
		}
		rev = append(rev, step)
		n = next
	}
	for i := len(rev) - 1; i >= 0; i-- {
		s := rev[i]
		p.Steps = append(p.Steps, s)
		p.Busy += s.Busy
		p.Latency += s.Latency
		p.Wait += s.Wait
	}
	return p
}

// share is one attribution bucket of the path summary.
type share struct {
	Key     string
	Seconds float64
	Count   int
}

func shareTable(m map[string]*share) []*share {
	out := make([]*share, 0, len(m))
	for _, s := range m { //mlstar:nolint determinism -- sorted by (seconds, unique key) below before any caller reads them; no charge or seed reads them
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool {
		//mlstar:nolint floateq -- exact compare intentional: equal shares fall through to the key tie-break
		if out[a].Seconds != out[b].Seconds {
			return out[a].Seconds > out[b].Seconds
		}
		return out[a].Key < out[b].Key
	})
	return out
}

func bump(m map[string]*share, key string, sec float64) {
	s := m[key]
	if s == nil {
		s = &share{Key: key}
		m[key] = s
	}
	s.Seconds += sec
	s.Count++
}

// run is a maximal stretch of consecutive path steps sharing one label
// (host + phase + note), the unit the top-segments table ranks.
type run struct {
	Label      string
	Start, End float64
	Seconds    float64 // busy+latency+wait contributed to the path
	Steps      int
}

func (p *Path) label(n *Node) string {
	switch n.Kind {
	case KindSend, KindRecv:
		note := n.Note
		if i := strings.IndexByte(note, '.'); i >= 0 && strings.HasPrefix(note[i:], ".c") {
			note = note[:i] + ".c*" // collapse per-chunk tags into one segment label
		}
		return fmt.Sprintf("%-7s %s %s [%s]", n.Host(), n.Kind, note, n.Chan)
	case KindBarrier:
		grp := n.Grp
		if i := strings.IndexByte(grp, '@'); i >= 0 {
			grp = grp[:i]
		}
		return fmt.Sprintf("%-7s barrier %s", n.Host(), grp)
	default:
		note := n.Note
		if note != "" {
			note = " " + note
		}
		return fmt.Sprintf("%-7s %s%s", n.Host(), n.Phase, note)
	}
}

// Runs merges consecutive steps with equal labels.
func (p *Path) Runs() []run {
	var runs []run
	for _, s := range p.Steps {
		n := &p.G.Nodes[s.Node]
		lab := p.label(n)
		sec := s.Busy + s.Latency + s.Wait
		if len(runs) > 0 && runs[len(runs)-1].Label == lab {
			r := &runs[len(runs)-1]
			r.Seconds += sec
			r.End = n.End
			r.Steps++
			continue
		}
		runs = append(runs, run{Label: lab, Start: n.BusyStart(), End: n.End, Seconds: sec, Steps: 1})
	}
	return runs
}

// Text renders the path summary: the exact makespan decomposition, the
// phase/host/channel shares of busy time along the path, and the topN
// heaviest merged segments in time order. Deterministic for a given log.
func (p *Path) Text(topN int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: makespan %.6fs over %d nodes (%d on path)\n",
		p.Makespan, len(p.G.Nodes), len(p.Steps))
	pct := func(x float64) float64 {
		if p.Makespan == 0 {
			return 0
		}
		return 100 * x / p.Makespan
	}
	fmt.Fprintf(&b, "  busy %.6fs (%.1f%%) + latency %.6fs (%.1f%%) + wait %.6fs (%.1f%%)\n",
		p.Busy, pct(p.Busy), p.Latency, pct(p.Latency), p.Wait, pct(p.Wait))

	phases := map[string]*share{}
	hosts := map[string]*share{}
	chans := map[string]*share{}
	for _, s := range p.Steps {
		if s.Busy == 0 && s.Latency == 0 && s.Wait == 0 {
			continue
		}
		n := &p.G.Nodes[s.Node]
		sec := s.Busy + s.Latency + s.Wait
		bump(phases, string(n.Phase), sec)
		bump(hosts, n.Host(), sec)
		if n.Kind == KindSend || n.Kind == KindRecv {
			bump(chans, string(n.Chan), sec)
		}
	}
	section := func(title string, m map[string]*share) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(&b, "%s:\n", title)
		for _, s := range shareTable(m) {
			fmt.Fprintf(&b, "  %-16s %12.6fs %5.1f%%  x%d\n", s.Key, s.Seconds, pct(s.Seconds), s.Count)
		}
	}
	section("path share by phase", phases)
	section("path share by host", hosts)
	section("path share by channel", chans)

	runs := p.Runs()
	order := make([]int, len(runs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := runs[order[a]], runs[order[b]]
		//mlstar:nolint floateq -- exact compare intentional: equal weights fall through to the position tie-break
		if ra.Seconds != rb.Seconds {
			return ra.Seconds > rb.Seconds
		}
		return order[a] < order[b]
	})
	if topN > len(order) {
		topN = len(order)
	}
	top := append([]int(nil), order[:topN]...)
	sort.Ints(top) // display in time order
	if len(top) > 0 {
		fmt.Fprintf(&b, "top %d path segments (of %d, time order):\n", len(top), len(runs))
		for _, i := range top {
			r := runs[i]
			fmt.Fprintf(&b, "  [%12.6f %12.6f] %10.6fs %5.1f%%  x%-4d %s\n",
				r.Start, r.End, r.Seconds, pct(r.Seconds), r.Steps, r.Label)
		}
	}
	return b.String()
}

// Dominant returns the phase with the largest share of path time — the
// message-granularity counterpart of obs.Attribute's verdict. Driver-hosted
// busy time is reported separately so the paper's B1/B2 diagnosis (driver
// incast) is directly readable.
func (p *Path) Dominant() (phase obs.Phase, driverShare float64) {
	phases := map[string]*share{}
	var driver float64
	for _, s := range p.Steps {
		n := &p.G.Nodes[s.Node]
		sec := s.Busy + s.Latency + s.Wait
		bump(phases, string(n.Phase), sec)
		if strings.HasPrefix(n.Host(), "driver") {
			driver += sec
		}
	}
	t := shareTable(phases)
	if len(t) == 0 {
		return "", 0
	}
	if p.Makespan > 0 {
		driverShare = driver / p.Makespan
	}
	return obs.Phase(t[0].Key), driverShare
}
