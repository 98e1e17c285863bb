package obs

import (
	"math"
	"strings"
	"testing"
)

// span is a compute-side span event, msg one half of a message.
func span(node string, ph Phase, start, end float64) Event {
	return Event{Node: node, Phase: ph, Start: start, End: end}
}

func msg(node string, ph Phase, dir Dir, start, end float64, tag string) Event {
	return Event{Node: node, Phase: ph, Dir: dir, Chan: ChanOther, Enc: EncDense, Start: start, End: end, Note: tag}
}

func TestGanttNilAndEmpty(t *testing.T) {
	for _, events := range [][]Event{nil, {}, {{Phase: PhaseMeta, Note: "system=x"}}} {
		g := GanttFromEvents(events)
		if g.Spans != nil || g.Markers != nil || g.Horizon() != 0 || g.Nodes() != nil {
			t.Errorf("%v: gantt %+v leaked state", events, g)
		}
		if got := g.ASCII(40); got != "(no activity recorded)\n" {
			t.Errorf("ascii = %q", got)
		}
		if got := g.CSV(); got != "node,kind,start,end,note\n" {
			t.Errorf("csv = %q", got)
		}
		if got := g.SVG("t", 900); !strings.Contains(got, "no activity recorded") {
			t.Errorf("svg = %q", got)
		}
		if len(g.BusyTime()) != 0 || len(g.Utilization()) != 0 || g.Busy("driver") != 0 {
			t.Error("empty gantt reports busy time")
		}
	}
}

// TestZeroLengthSpansDropped: a span or message half with End <= Start
// draws no bar — the SVG would otherwise show a 0.5 px sliver.
func TestZeroLengthSpansDropped(t *testing.T) {
	g := GanttFromEvents([]Event{
		span("n", PhaseCompute, 5, 5),
		span("n", PhaseCompute, 5, 4),
		msg("n", PhaseComm, DirSend, 3, 3, "x"),
		msg("n", PhaseComm, DirRecv, 3, 2, "x"),
	})
	if len(g.Spans) != 0 {
		t.Errorf("spans = %v", g.Spans)
	}
}

func TestHorizonAndNodesOrder(t *testing.T) {
	g := GanttFromEvents([]Event{
		span("executor2", PhaseCompute, 0, 2),
		span("driver", PhaseUpdate, 2, 3),
		span("executor1", PhaseCompute, 0, 7),
	})
	if h := g.Horizon(); h != 7 {
		t.Errorf("horizon = %g", h)
	}
	nodes := g.Nodes()
	want := []string{"driver", "executor1", "executor2"}
	for i, n := range want {
		if nodes[i] != n {
			t.Fatalf("nodes = %v, want %v", nodes, want)
		}
	}
}

func TestBusyTimeMergesOverlaps(t *testing.T) {
	g := GanttFromEvents([]Event{
		span("n", PhaseCompute, 0, 4),
		span("n", PhaseCompute, 2, 6), // overlaps, merged => [0,6]
		span("n", PhaseCompute, 10, 11),
		msg("n", PhaseTreeAgg, DirSend, 0, 1, ""),
		msg("n", PhaseShuffle, DirSend, 0.5, 1.5, ""), // another phase, the same send class
	})
	bt := g.BusyTime()
	if got := bt["n"]["compute"]; math.Abs(got-7) > 1e-12 {
		t.Errorf("compute busy = %g, want 7", got)
	}
	if got := bt["n"]["send"]; got != 1.5 {
		t.Errorf("send busy = %g, want 1.5", got)
	}
	if got := g.Busy("n"); math.Abs(got-8.5) > 1e-12 {
		t.Errorf("total busy = %g, want 8.5", got)
	}
}

// TestUtilizationExcludesBarrier: waiting at a barrier or for a pipelined
// chunk is not utilization, and a feat-block span annotates compute that is
// already booked.
func TestUtilizationExcludesBarrier(t *testing.T) {
	g := GanttFromEvents([]Event{
		span("n", PhaseCompute, 0, 5),
		span("n", PhaseBarrier, 5, 10),
		span("n", PhasePipeline, 6, 8),
		span("n", PhaseFeatBlock, 1, 3),
		span("m", PhaseUpdate, 0, 10),
	})
	u := g.Utilization()
	if got := u["n"]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("utilization = %g, want 0.5", got)
	}
	if got := u["m"]; got != 1 {
		t.Errorf("utilization = %g, want 1", got)
	}
}

// TestUtilizationFoldsInClassOrder: a node's busy classes are summed in
// class order, so its utilization is one float however anything else is
// iterated. The busy times make the sum order-sensitive: 1 + 2⁻⁵³ + 2⁻⁵³ is
// 1 in class order (compute before aggregate and update), 1 + 2⁻⁵² with the
// two small terms first.
func TestUtilizationFoldsInClassOrder(t *testing.T) {
	tiny := math.Ldexp(1, -53)
	g := GanttFromEvents([]Event{
		span("n", PhaseCompute, 0, 1),
		span("n", PhaseAgg, 0, tiny),
		span("n", PhaseUpdate, 0, tiny),
	})
	for range 20 {
		if got := g.Utilization()["n"]; math.Float64bits(got) != math.Float64bits(1) {
			t.Fatalf("utilization = %v (%x), want exactly 1", got, math.Float64bits(got))
		}
	}
}

func TestRenderASCII(t *testing.T) {
	g := GanttFromEvents([]Event{
		span("driver", PhaseUpdate, 5, 10),
		span("executor1", PhaseCompute, 0, 5),
		{Node: "driver", Phase: PhaseStage, Start: 0, End: 5, Note: "s"},
	})
	out := g.ASCII(20)
	if !strings.Contains(out, "driver") || !strings.Contains(out, "executor1") {
		t.Fatalf("missing rows:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	var drv, exe string
	for _, l := range lines {
		if strings.Contains(l, "driver") {
			drv = l
		}
		if strings.Contains(l, "executor1") {
			exe = l
		}
	}
	if !strings.Contains(drv, "U") || !strings.Contains(drv, "|") {
		t.Errorf("driver row missing update glyph or stage marker: %q", drv)
	}
	if !strings.Contains(exe, "C") {
		t.Errorf("executor row missing compute glyph: %q", exe)
	}
	if !strings.Contains(out, "legend:") {
		t.Error("missing legend")
	}
}

func TestCSVEscapesCommas(t *testing.T) {
	g := GanttFromEvents([]Event{msg("n", PhaseComm, DirRecv, 0, 1, "a,b")})
	if got := g.CSV(); got != "node,kind,start,end,note\nn,recv,0.000000000,1.000000000,a;b\n" {
		t.Errorf("csv = %q", got)
	}
}

// TestKindForSend pins the display class of a message half: a
// parameter-server pull or push has its own class in either direction,
// everything else is a plain send or recv.
func TestKindForSend(t *testing.T) {
	for _, c := range []struct {
		ph   Phase
		dir  Dir
		want string
	}{
		{PhasePSPull, DirSend, "pull"},
		{PhasePSPush, DirRecv, "push"},
		{PhaseTreeAgg, DirSend, "send"},
		{PhaseTreeAgg, DirRecv, "recv"},
		{PhaseComm, DirSend, "send"},
	} {
		if got := (GanttSpan{Phase: c.ph, Dir: c.dir}).Kind(); got != c.want {
			t.Errorf("(%s, %s) draws as %q, want %q", c.ph, c.dir, got, c.want)
		}
	}
}

// TestGanttKinds pins the display class of a span event: it follows the
// phase, and a phase without a class of its own draws as compute.
func TestGanttKinds(t *testing.T) {
	for ph, want := range map[Phase]string{
		PhaseCompute:     "compute",
		PhaseAgg:         "aggregate",
		PhaseUpdate:      "update",
		PhaseEncode:      "encode",
		PhaseBarrier:     "barrier",
		PhasePipeline:    "pipeline",
		PhaseFeatBlock:   "featblock",
		PhaseSchedule:    "stage",
		PhasePSPull:      "pull",
		PhasePSPush:      "push",
		Phase("unknown"): "compute",
	} {
		if got := (GanttSpan{Phase: ph}).Kind(); got != want {
			t.Errorf("span phase %s draws as %q, want %q", ph, got, want)
		}
	}
}

// TestGanttFromEvents: span and message events become bars carrying their
// own note, a stage event the two markers the live engine always drew, and
// the bookkeeping events nothing.
func TestGanttFromEvents(t *testing.T) {
	events := sampleSink().Events()
	events = append(events, Event{Step: 1, Node: "driver", Phase: PhaseStage, Start: 0, End: 0.018, Note: "mgd1"})
	g := GanttFromEvents(events)
	want := []GanttMarker{{0, "stage mgd1 start"}, {0.018, "stage mgd1 end"}}
	if len(g.Markers) != 2 || g.Markers[0] != want[0] || g.Markers[1] != want[1] {
		t.Errorf("markers = %v, want %v", g.Markers, want)
	}
	if len(g.Spans) != 10 {
		t.Errorf("%d spans, want the sample's 10 span and message events", len(g.Spans))
	}
	busy := g.BusyTime()
	if busy["driver"]["stage"] == 0 {
		t.Error("schedule span missing from the gantt")
	}
	if busy["executor0"]["compute"] == 0 {
		t.Error("compute span missing from the gantt")
	}
	if busy["driver"]["recv"] == 0 {
		t.Error("recv span missing from the gantt")
	}
	if g.Spans[0].Note != "schedule mgd1" || g.Spans[6].Note != "model update" {
		t.Errorf("span notes = %q, %q; want the events' own", g.Spans[0].Note, g.Spans[6].Note)
	}
}

// TestGanttMarkersChronological: a stage event is logged when the stage
// ends, so a stage nested in another arrives first; its markers still sort
// into time order, as the engine recorded them.
func TestGanttMarkersChronological(t *testing.T) {
	g := GanttFromEvents([]Event{
		{Node: "driver", Phase: PhaseStage, Start: 1, End: 2, Note: "inner"},
		{Node: "driver", Phase: PhaseStage, Start: 0, End: 3, Note: "outer"},
	})
	var got []string
	for _, m := range g.Markers {
		got = append(got, m.Label)
	}
	want := "stage outer start,stage inner start,stage inner end,stage outer end"
	if strings.Join(got, ",") != want {
		t.Errorf("markers %v, want %s", got, want)
	}
}
