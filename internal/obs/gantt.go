package obs

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"mllibstar/internal/metrics"
)

// Gantt is the per-node activity chart of a run — the methodology of the
// paper's Figure 3: one row per cluster node, one bar per activity, and a
// vertical marker at every stage start and end. It is a pure function of
// the event log (GanttFromEvents), so a live run and its replayed JSONL
// log draw the same chart.
type Gantt struct {
	Spans   []GanttSpan   // in log order
	Markers []GanttMarker // in time order
}

// GanttSpan is one contiguous activity interval on one node: a span event
// (Dir empty) or one half of a message.
type GanttSpan struct {
	Node       string
	Phase      Phase
	Dir        Dir
	Start, End float64
	Note       string // the span's note, or the message's tag (kept by causal sinks only)
}

// GanttMarker is a vertical line annotation (the paper marks stage starts
// in red and stage ends in green).
type GanttMarker struct {
	At    float64
	Label string
}

// GanttFromEvents builds the gantt of an event log. Span and message events
// of positive length become bars; stage events become a start and an end
// marker; the bookkeeping phases (step, eval, updates, meta, causal)
// describe the run rather than node activity and are skipped.
func GanttFromEvents(events []Event) Gantt {
	var g Gantt
	for _, e := range events {
		switch e.Phase {
		case PhaseStep, PhaseEval, PhaseUpdates, PhaseMeta,
			PhaseCausalFork, PhaseCausalBarrier, PhaseCausalSpec:
			continue
		case PhaseStage:
			g.Markers = append(g.Markers,
				GanttMarker{At: e.Start, Label: "stage " + e.Note + " start"},
				GanttMarker{At: e.End, Label: "stage " + e.Note + " end"})
			continue
		}
		if e.End <= e.Start {
			continue
		}
		g.Spans = append(g.Spans, GanttSpan{Node: e.Node, Phase: e.Phase, Dir: e.Dir, Start: e.Start, End: e.End, Note: e.Note})
	}
	// A stage event is logged when the stage ends, so nested or concurrent
	// stages arrive out of start order; the markers are kept chronological.
	slices.SortStableFunc(g.Markers, func(a, b GanttMarker) int {
		switch {
		case a.At < b.At:
			return -1
		case a.At > b.At:
			return 1
		}
		return 0
	})
	return g
}

// ganttKind is the display class of a bar: its CSV name, ASCII glyph and SVG
// fill. Several phases share a class — every message half that is not a
// parameter-server pull or push draws as a plain send or recv.
type ganttKind uint8

const (
	kindCompute ganttKind = iota
	kindSend
	kindRecv
	kindAggregate
	kindUpdate
	kindBarrier
	kindStage
	kindPull
	kindPush
	kindEncode
	kindPipeline
	kindFeatBlock

	kindCount
)

// ganttKinds holds each class's CSV name, ASCII glyph and SVG fill. The
// fills group into two families so computation and communication can be
// told apart at a glance:
//
//	computation    compute #2a78d6 (blue) · aggregate #4a3aa7 (violet) ·
//	               update #1baf7a (aqua) · encode #2aa0c8 (cyan) ·
//	               featblock #6fb5e8 (sky — overlapped gradient blocks)
//	communication  send #e34948 (red) · recv #eda100 (yellow) ·
//	               ps-pull #c23b78 (pink) · ps-push #eb6834 (orange)
//	other          barrier-wait #e4e3df (faint gray) · stage-scheduling
//	               #b9b7b1 (gray) · markers as thin vertical ink lines
//
// Cool hues always mean "the node is working", warm hues always mean "bytes
// are moving" — the distinction the B1/B2 bottleneck discussion rests on.
// The ASCII legend groups the glyphs the same way.
var ganttKinds = [kindCount]struct {
	name  string
	glyph byte
	fill  string
}{
	kindCompute:   {"compute", 'C', "#2a78d6"},
	kindSend:      {"send", 's', "#e34948"},
	kindRecv:      {"recv", 'r', "#eda100"},
	kindAggregate: {"aggregate", 'A', "#4a3aa7"},
	kindUpdate:    {"update", 'U', "#1baf7a"},
	kindBarrier:   {"barrier", '.', "#e4e3df"},
	kindStage:     {"stage", '#', "#b9b7b1"},
	kindPull:      {"pull", 'p', "#c23b78"},
	kindPush:      {"push", 'P', "#eb6834"},
	kindEncode:    {"encode", 'e', "#2aa0c8"},
	kindPipeline:  {"pipeline", 'w', "#f2d8a7"},
	kindFeatBlock: {"featblock", 'f', "#6fb5e8"},
}

// spanKinds classifies span events (Dir empty) by phase; a phase not listed
// draws as compute.
var spanKinds = map[Phase]ganttKind{
	PhaseAgg:       kindAggregate,
	PhaseUpdate:    kindUpdate,
	PhaseEncode:    kindEncode,
	PhaseBarrier:   kindBarrier,
	PhasePipeline:  kindPipeline,
	PhaseFeatBlock: kindFeatBlock,
	PhaseSchedule:  kindStage,
}

// kindOf classifies a span by its phase and message direction: a
// parameter-server pull or push has its own class either way, any other
// message half is a plain send or recv.
func kindOf(ph Phase, dir Dir) ganttKind {
	switch {
	case ph == PhasePSPull:
		return kindPull
	case ph == PhasePSPush:
		return kindPush
	case dir == DirRecv:
		return kindRecv
	case dir != "":
		return kindSend
	}
	return spanKinds[ph]
}

// Kind returns the span's display class name, the CSV's kind column.
func (s GanttSpan) Kind() string { return ganttKinds[kindOf(s.Phase, s.Dir)].name }

// Horizon returns the largest span end time.
func (g Gantt) Horizon() float64 {
	h := 0.0
	for _, s := range g.Spans {
		if s.End > h {
			h = s.End
		}
	}
	return h
}

// Nodes returns the distinct node names, driver first (if present) and the
// rest sorted, matching the paper's row order.
func (g Gantt) Nodes() []string {
	seen := map[string]bool{}
	var names []string
	for _, s := range g.Spans {
		if !seen[s.Node] {
			seen[s.Node] = true
			names = append(names, s.Node)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		di, dj := strings.HasPrefix(names[i], "driver"), strings.HasPrefix(names[j], "driver")
		if di != dj {
			return di
		}
		return names[i] < names[j]
	})
	return names
}

// busy returns, per node, the time spent in each display class. Overlapping
// spans of one class are counted once.
func (g Gantt) busy() map[string]*[kindCount]float64 {
	type key struct {
		node string
		kind ganttKind
	}
	grouped := map[key][]GanttSpan{}
	var keys []key // first-seen order, so nothing below depends on map order
	for _, s := range g.Spans {
		k := key{s.Node, kindOf(s.Phase, s.Dir)}
		if _, ok := grouped[k]; !ok {
			keys = append(keys, k)
		}
		grouped[k] = append(grouped[k], s)
	}
	out := map[string]*[kindCount]float64{}
	for _, k := range keys {
		spans := grouped[k]
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		total, curStart, curEnd := 0.0, spans[0].Start, spans[0].End
		for _, s := range spans[1:] {
			if s.Start > curEnd {
				total += curEnd - curStart
				curStart, curEnd = s.Start, s.End
			} else if s.End > curEnd {
				curEnd = s.End
			}
		}
		total += curEnd - curStart
		if out[k.node] == nil {
			out[k.node] = new([kindCount]float64)
		}
		out[k.node][k.kind] = total
	}
	return out
}

// BusyTime returns, per node, the time spent in each display class, keyed
// by the class's CSV name. Overlapping spans of one class are counted once.
func (g Gantt) BusyTime() map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	busy := g.busy()
	for _, node := range g.Nodes() {
		out[node] = map[string]float64{}
		for k, t := range busy[node] {
			if t != 0 {
				out[node][ganttKinds[k].name] = t
			}
		}
	}
	return out
}

// Busy returns the node's busy time summed over every display class, in
// class order.
func (g Gantt) Busy(node string) float64 {
	total := 0.0
	if kinds := g.busy()[node]; kinds != nil {
		for _, t := range kinds {
			total += t
		}
	}
	return total
}

// Utilization returns the fraction of [0, Horizon] each node spends in any
// activity except barrier, pipeline and featblock (the first two are waiting
// — at a BSP barrier or for a pipelined chunk — and the third annotates
// compute charges that are already counted, so including it would
// double-book the overlapped gradient blocks).
func (g Gantt) Utilization() map[string]float64 {
	out := map[string]float64{}
	h := g.Horizon()
	if h == 0 {
		return out
	}
	busy := g.busy()
	for _, node := range g.Nodes() {
		sum := 0.0
		for k, t := range busy[node] {
			if k := ganttKind(k); k != kindBarrier && k != kindPipeline && k != kindFeatBlock {
				sum += t
			}
		}
		out[node] = sum / h
	}
	return out
}

// ASCII renders the chart at a fixed width: one row per node, time scaled
// to width columns, later spans drawn over earlier ones, '|' columns for
// markers, and a legend underneath.
func (g Gantt) ASCII(width int) string {
	if len(g.Spans) == 0 {
		return "(no activity recorded)\n"
	}
	if width < 10 {
		width = 10
	}
	horizon := g.Horizon()
	if horizon == 0 {
		return "(no activity recorded)\n"
	}
	nodes := g.Nodes()
	nameW := 0
	for _, n := range nodes {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	rows := map[string][]byte{}
	for _, n := range nodes {
		rows[n] = []byte(strings.Repeat(" ", width))
	}
	col := func(t float64) int {
		return min(max(int(t/horizon*float64(width)), 0), width-1)
	}
	for _, s := range g.Spans {
		row := rows[s.Node]
		glyph := ganttKinds[kindOf(s.Phase, s.Dir)].glyph
		for c := col(s.Start); c <= col(s.End); c++ {
			row[c] = glyph
		}
	}
	for _, m := range g.Markers {
		c := col(m.At)
		for _, n := range nodes {
			if rows[n][c] == ' ' {
				rows[n][c] = '|'
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%*s  0%*s%.2fs\n", nameW, "", width-len(fmt.Sprintf("%.2fs", horizon))-1, "", horizon)
	for _, n := range nodes {
		fmt.Fprintf(&b, "%*s  %s\n", nameW, n, rows[n])
	}
	b.WriteString("legend: computation[C=compute A=aggregate U=update e=encode f=feat-block] communication[s=send r=recv p=ps-pull P=ps-push] other[.=barrier-wait w=pipeline-stall #=stage-scheduling |=marker]\n")
	return b.String()
}

// CSV renders every span as a "node,kind,start,end,note" line under a
// header, for external plotting.
func (g Gantt) CSV() string {
	var b strings.Builder
	b.WriteString("node,kind,start,end,note\n")
	for _, s := range g.Spans {
		fmt.Fprintf(&b, "%s,%s,%.9f,%.9f,%s\n", s.Node, s.Kind(), s.Start, s.End, strings.ReplaceAll(s.Note, ",", ";"))
	}
	return b.String()
}

// ganttLegend is the SVG legend layout: two labeled families, then the rest.
var ganttLegend = []struct {
	label string
	kinds []ganttKind
}{
	{"computation:", []ganttKind{kindCompute, kindAggregate, kindUpdate, kindEncode, kindFeatBlock}},
	{"communication:", []ganttKind{kindSend, kindRecv, kindPull, kindPush}},
	{"other:", []ganttKind{kindBarrier, kindPipeline, kindStage}},
}

// SVG renders the chart as an SVG document in the palette of the curve
// figures (internal/metrics): one row per node, bars filled by display
// class, markers as vertical lines, and a legend separating computation
// from communication.
func (g Gantt) SVG(title string, width int) string {
	horizon := g.Horizon()
	if len(g.Spans) == 0 || horizon == 0 {
		return `<svg xmlns="http://www.w3.org/2000/svg" width="300" height="40"><text x="10" y="25" font-size="12">no activity recorded</text></svg>`
	}
	if width <= 0 {
		width = 900
	}
	nodes := g.Nodes()
	const rowH, rowGap, marginT, legendH, marginB = 18, 6, 34, 44, 26
	marginL := 60
	for _, n := range nodes {
		if w := 14 + 7*len(n); w > marginL {
			marginL = w
		}
	}
	plotW := float64(width - marginL - 20)
	height := marginT + len(nodes)*(rowH+rowGap) + legendH + marginB
	px := func(t float64) float64 { return float64(marginL) + t/horizon*plotW }
	rowY := func(i int) int { return marginT + i*(rowH+rowGap) }
	rowOf := map[string]int{}
	for i, n := range nodes {
		rowOf[n] = i
	}
	esc := metrics.EscapeSVG

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="%s">`,
		width, height, width, height, metrics.SVGFontStack)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="%s"/>`, width, height, metrics.SVGSurface)
	if title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="20" font-size="14" font-weight="600" fill="%s">%s</text>`,
			marginL, metrics.SVGInk, esc(title))
	}
	for i, n := range nodes {
		y := rowY(i)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="11" fill="%s">%s</text>`,
			8, y+rowH-5, metrics.SVGInkSoft, esc(n))
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%.1f" height="%d" fill="%s"/>`,
			marginL, y, plotW, rowH, metrics.SVGGrid)
	}
	for _, s := range g.Spans {
		x0, x1 := px(s.Start), px(s.End)
		if x1-x0 < 0.5 {
			x1 = x0 + 0.5 // keep point-like spans visible
		}
		k := ganttKinds[kindOf(s.Phase, s.Dir)]
		fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"><title>%s %s [%.4f, %.4f]</title></rect>`,
			x0, rowY(rowOf[s.Node]), x1-x0, rowH, k.fill,
			esc(s.Node), k.name, s.Start, s.End)
	}
	chartBottom := rowY(len(nodes)-1) + rowH
	for _, m := range g.Markers {
		x := px(m.At)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="%s" stroke-width="0.6" opacity="0.5"/>`,
			x, marginT-4, x, chartBottom+4, metrics.SVGInk)
	}
	// Time axis: start and horizon.
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10" fill="%s">0</text>`,
		marginL, chartBottom+14, metrics.SVGInkSoft)
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="10" fill="%s" text-anchor="end">%.3fs</text>`,
		float64(marginL)+plotW, chartBottom+14, metrics.SVGInkSoft, horizon)
	// Legend: family label, then a swatch + class name per member.
	lx, ly := float64(marginL), float64(chartBottom+34)
	for _, group := range ganttLegend {
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" font-weight="600" fill="%s">%s</text>`,
			lx, ly, metrics.SVGInk, group.label)
		lx += float64(8 * len(group.label))
		for _, k := range group.kinds {
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="10" height="10" fill="%s"/>`,
				lx, ly-9, ganttKinds[k].fill)
			name := ganttKinds[k].name
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" fill="%s">%s</text>`,
				lx+13, ly, metrics.SVGInkSoft, name)
			lx += float64(13 + 7*len(name) + 10)
		}
		lx += 14
	}
	b.WriteString(`</svg>`)
	return b.String()
}
