package causal

import (
	"math"
	"sort"
	"strings"

	"mllibstar/internal/allreduce"
)

// Scenario is a hypothetical re-timing of a recorded run. Zero-valued
// scale fields mean 1 (unchanged); Chunks of zero leaves the collectives
// alone.
type Scenario struct {
	Name         string
	CommScale    float64 // scales every message service duration
	ComputeScale float64 // scales every span duration
	LatencyScale float64 // scales every propagation lag
	DriverZero   bool    // zero all busy time on driver-prefixed hosts (spans and NIC services)
	Chunks       int     // re-chunk every sequential AllReduce into this many pipelined chunks

	// Overlap re-times the trace as if -overlap were on: every sequential
	// collective becomes pipelined (Chunks chunks; allreduce.DefaultChunks
	// when Chunks is zero), and the gradient-producing collectives
	// additionally stream feature-major blocks into the chunk sends — the
	// allreduce.AverageProduced plan, its blocks charged from the recorded
	// gradient charge.
	Overlap bool
}

// Prediction is the outcome of re-timing one scenario.
type Prediction struct {
	Scenario Scenario
	Makespan float64
	Speedup  float64
	Err      string // non-empty when the scenario does not apply to this trace
}

func scale(f float64) float64 {
	if f == 0 {
		return 1
	}
	return f
}

// Retime replays the graph's schedule under the scenario: nodes run in the
// original (start, id) order, each starting at the latest of its
// predecessors' completions, its NIC's free time, and its exogenous floor —
// the original start time, kept only where the original schedule shows a
// gap no predecessor explains (startup staggers). The identity scenario
// reproduces every original timestamp bit-for-bit, which TestRetimeIdentity
// pins; structural scenarios (Chunks, Overlap) rebuild the affected
// subgraphs the way the simulator itself would have built them.
func Retime(g *Graph, sc Scenario) Prediction {
	pr := Prediction{Scenario: sc}
	base := g.Makespan()
	r := lower(g)
	if sc.Overlap || sc.Chunks > 0 {
		C := sc.Chunks
		if C <= 0 {
			C = allreduce.DefaultChunks
		}
		if err := collectiveTransform(r, C, sc.Overlap); err != nil {
			pr.Err = err.Error()
			return pr
		}
	}
	r.applyScales(sc)
	r.finalize()
	pr.Makespan = r.schedule(scale(sc.LatencyScale))
	if pr.Makespan > 0 {
		pr.Speedup = base / pr.Makespan
	}
	return pr
}

// redge is an edge in the lowered graph; from indexes retimer.nodes.
type redge struct {
	from int
	lag  float64
}

// rnode is a lowered node: original nodes keep their recorded span for the
// identity shortcut and exogenous floor; synthesized nodes (chunk rebuilds)
// carry key material from the original node they replace so the replay
// order stays deterministic.
type rnode struct {
	kind               NodeKind
	host               string
	res                string
	grp                string
	dur                float64
	exo                float64
	preds              []redge
	scaled             bool // duration or structure altered by the scenario
	dropped            bool
	hasOrig            bool
	origStart, origEnd float64
	keyT               float64
	keyID              int
	keySub             int

	newStart, newEnd float64
}

type retimer struct {
	g        *retimerGraph
	nodes    []*rnode
	redirect map[int][]int // dropped original id -> replacement indices for incoming edges
	groups   map[string][]int
}

// retimerGraph is the slice of Graph the retimer needs, kept separate so
// transforms cannot accidentally mutate the source graph.
type retimerGraph struct {
	src       *Graph
	recvOfMID map[int64]int
}

// lower copies the graph into mutable retimer nodes, computing each
// original node's exogenous floor from its recorded gating.
func lower(g *Graph) *retimer {
	r := &retimer{
		g:        &retimerGraph{src: g, recvOfMID: map[int64]int{}},
		redirect: map[int][]int{},
		groups:   map[string][]int{},
	}
	for _, n := range g.Nodes {
		if n.Kind == KindRecv && n.MID != 0 {
			r.g.recvOfMID[n.MID] = n.ID
		}
	}
	for grp, ids := range g.Groups { //mlstar:nolint determinism -- order-insensitive: copying a map into a map
		r.groups[grp] = append([]int(nil), ids...)
	}
	for _, n := range g.Nodes {
		rn := &rnode{
			kind: n.Kind, host: n.Host, res: n.Res, grp: n.Grp, dur: n.Dur,
			hasOrig: true, origStart: n.Start, origEnd: n.End,
			keyT: n.Start, keyID: n.ID,
		}
		gate := math.Inf(-1)
		for _, e := range n.Preds {
			rn.preds = append(rn.preds, redge{from: e.From, lag: e.Lag})
			if ready := g.Nodes[e.From].End + e.Lag; ready > gate {
				gate = ready
			}
		}
		// Resource readiness counts toward the gate for recvs (the in-NIC
		// reservation starts at max(arrival, free)), not for sends, whose
		// recorded start is the request time before any queueing.
		if n.Kind == KindRecv && n.ResPred >= 0 {
			if ready := g.Nodes[n.ResPred].End; ready > gate {
				gate = ready
			}
		}
		if n.Start > gate+eps {
			rn.exo = n.Start
		}
		r.nodes = append(r.nodes, rn)
	}
	return r
}

func (r *retimer) add(rn *rnode) int {
	rn.scaled = true
	r.nodes = append(r.nodes, rn)
	return len(r.nodes) - 1
}

func isDriverHost(host string) bool { return strings.HasPrefix(host, "driver") }

func (r *retimer) applyScales(sc Scenario) {
	comm, comp := scale(sc.CommScale), scale(sc.ComputeScale)
	for _, rn := range r.nodes {
		if rn.dropped {
			continue
		}
		switch rn.kind {
		case KindSend, KindRecv:
			if sc.DriverZero && isDriverHost(rn.host) {
				rn.dur, rn.scaled = 0, true
				continue
			}
			rn.dur *= comm
			//mlstar:nolint floateq -- exact compare intentional: exactly 1 means the scenario left this dimension unscaled
			if comm != 1 {
				rn.scaled = true
			}
		case KindSpan:
			if sc.DriverZero && isDriverHost(rn.host) {
				rn.dur, rn.scaled = 0, true
				continue
			}
			rn.dur *= comp
			//mlstar:nolint floateq -- exact compare intentional: exactly 1 means the scenario left this dimension unscaled
			if comp != 1 {
				rn.scaled = true
			}
		}
	}
}

// finalize rewires edges that point at dropped nodes to their replacements.
func (r *retimer) finalize() {
	for i, rn := range r.nodes {
		if rn.dropped {
			continue
		}
		rewired := rn.preds[:0]
		for _, e := range rn.preds {
			if !r.nodes[e.from].dropped {
				rewired = append(rewired, e)
				continue
			}
			for _, to := range r.redirect[e.from] {
				if to != i {
					rewired = append(rewired, redge{from: to, lag: e.lag})
				}
			}
		}
		rn.preds = rewired
	}
}

// keyLess orders lowered nodes by (original start, id, sub) — the replay
// priority. For an untransformed graph this order is itself topological
// (Validate proves every edge runs backward in it), so the ready-list
// scheduler below degenerates to a plain sorted sweep and the identity
// replay is exact.
func (r *retimer) keyLess(a, b int) bool {
	na, nb := r.nodes[a], r.nodes[b]
	//mlstar:nolint floateq -- exact compare intentional: equal keys fall through to the id tie-breaks
	if na.keyT != nb.keyT {
		return na.keyT < nb.keyT
	}
	if na.keyID != nb.keyID {
		return na.keyID < nb.keyID
	}
	return na.keySub < nb.keySub
}

// readyOrder linearizes the live nodes: repeatedly the lowest-key node whose
// predecessors are all placed. Structural transforms synthesize nodes whose
// keys (inherited from the originals they replace) need not topologically
// sort — a pipelined allgather send keys with the sends but is gated by a
// later-keyed fold — so a plain key sort would read unscheduled
// predecessors. Successors of a barrier member wait for the whole group,
// since the release is resolved from every member's placement. A leftover
// cycle (malformed input) drains in key order rather than hanging.
func (r *retimer) readyOrder() []int {
	n := len(r.nodes)
	indeg := make([]int, n)
	succs := make([][]int, n)
	live := 0
	addDep := func(from, to int) {
		if from == to || r.nodes[from].dropped {
			return
		}
		succs[from] = append(succs[from], to)
		indeg[to]++
	}
	for i, rn := range r.nodes {
		if rn.dropped {
			continue
		}
		live++
		for _, e := range rn.preds {
			p := r.nodes[e.from]
			if p.kind == KindBarrier && p.grp != "" {
				for _, m := range r.groups[p.grp] {
					addDep(m, i)
				}
				continue
			}
			addDep(e.from, i)
		}
	}
	h := &keyHeap{r: r}
	for i, rn := range r.nodes {
		if !rn.dropped && indeg[i] == 0 {
			h.push(i)
		}
	}
	order := make([]int, 0, live)
	placed := make([]bool, n)
	for h.Len() > 0 {
		i := h.pop()
		order = append(order, i)
		placed[i] = true
		for _, s := range succs[i] {
			if indeg[s]--; indeg[s] == 0 {
				h.push(s)
			}
		}
	}
	if len(order) < live {
		var rest []int
		for i, rn := range r.nodes {
			if !rn.dropped && !placed[i] {
				rest = append(rest, i)
			}
		}
		sort.Slice(rest, func(a, b int) bool { return r.keyLess(rest[a], rest[b]) })
		order = append(order, rest...)
	}
	return order
}

// keyHeap is a min-heap of node indices under keyLess.
type keyHeap struct {
	r  *retimer
	xs []int
}

func (h *keyHeap) Len() int { return len(h.xs) }

func (h *keyHeap) push(i int) {
	h.xs = append(h.xs, i)
	c := len(h.xs) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !h.r.keyLess(h.xs[c], h.xs[p]) {
			break
		}
		h.xs[c], h.xs[p] = h.xs[p], h.xs[c]
		c = p
	}
}

func (h *keyHeap) pop() int {
	top := h.xs[0]
	last := len(h.xs) - 1
	h.xs[0] = h.xs[last]
	h.xs = h.xs[:last]
	p := 0
	for {
		c := 2*p + 1
		if c >= len(h.xs) {
			break
		}
		if c+1 < len(h.xs) && h.r.keyLess(h.xs[c+1], h.xs[c]) {
			c++
		}
		if !h.r.keyLess(h.xs[c], h.xs[p]) {
			break
		}
		h.xs[p], h.xs[c] = h.xs[c], h.xs[p]
		p = c
	}
	return top
}

// schedule replays the lowered nodes in ready-list order with per-resource
// FIFO and lazy barrier resolution, returning the new makespan.
func (r *retimer) schedule(latScale float64) float64 {
	order := r.readyOrder()
	freeAt := map[string]float64{}
	// Per resource: every occupant so far reproduced its original end
	// bit-for-bit, so max(gate, freeAt) is the arithmetic the simulator did.
	perfect := map[string]bool{}
	perfectAt := func(res string) bool {
		p, seen := perfect[res]
		return p || !seen
	}
	grpEnd := map[string]float64{}
	endOf := func(i int) float64 {
		n := r.nodes[i]
		if n.kind != KindBarrier {
			return n.newEnd
		}
		// A barrier's release is the slowest member's (re-timed) arrival;
		// every member is scheduled before any successor reads this.
		e, ok := grpEnd[n.grp]
		if !ok {
			e = math.Inf(-1)
			for _, m := range r.groups[n.grp] {
				if s := r.nodes[m].newStart; s > e {
					e = s
				}
			}
			grpEnd[n.grp] = e
		}
		return e
	}
	makespan := 0.0
	for _, i := range order {
		rn := r.nodes[i]
		gate := rn.exo
		for _, e := range rn.preds {
			if ready := endOf(e.from) + e.lag*latScale; ready > gate {
				gate = ready
			}
		}
		switch rn.kind {
		case KindSend:
			rn.newStart = gate
			res := rn.res
			busy := math.Max(gate, freeAt[res])
			//mlstar:nolint floateq -- exact compare intentional: the identity shortcut fires only on bitwise reproduction
			ok, wasPerfect := !rn.scaled && rn.hasOrig && rn.newStart == rn.origStart, perfectAt(res)
			if ok && wasPerfect {
				rn.newEnd = rn.origEnd
			} else {
				rn.newEnd = busy + rn.dur
			}
			//mlstar:nolint floateq -- exact compare intentional: the identity shortcut fires only on bitwise reproduction
			perfect[res] = wasPerfect && ok && rn.newEnd == rn.origEnd
			freeAt[res] = rn.newEnd
		case KindRecv:
			res := rn.res
			busy := math.Max(gate, freeAt[res])
			rn.newStart = busy
			//mlstar:nolint floateq -- exact compare intentional: the identity shortcut fires only on bitwise reproduction
			ok, wasPerfect := !rn.scaled && rn.hasOrig && busy == rn.origStart, perfectAt(res)
			if ok && wasPerfect {
				rn.newEnd = rn.origEnd
			} else {
				rn.newEnd = busy + rn.dur
			}
			//mlstar:nolint floateq -- exact compare intentional: the identity shortcut fires only on bitwise reproduction
			perfect[res] = wasPerfect && ok && rn.newEnd == rn.origEnd
			freeAt[res] = rn.newEnd
		case KindSpan:
			rn.newStart = gate
			//mlstar:nolint floateq -- exact compare intentional: the identity shortcut fires only on bitwise reproduction
			if !rn.scaled && rn.hasOrig && gate == rn.origStart {
				rn.newEnd = rn.origEnd
			} else {
				rn.newEnd = gate + rn.dur
			}
		case KindBarrier:
			rn.newStart = gate
			rn.newEnd = math.NaN() // resolved lazily via grpEnd
		default: // fork
			rn.newStart, rn.newEnd = gate, gate
		}
		if rn.kind != KindBarrier && rn.newEnd > makespan {
			makespan = rn.newEnd
		}
	}
	for _, i := range order {
		if rn := r.nodes[i]; rn.kind == KindBarrier {
			if e := endOf(i); e > makespan {
				makespan = e
			}
		}
	}
	return makespan
}
