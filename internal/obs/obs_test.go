package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleSink replays a small synthetic two-step run covering every event
// kind the sink books: spans, both message halves, dense and sparse
// encodings, evals, update counters, and metadata.
func sampleSink() *Sink {
	s := NewSink()
	s.Meta("system", "MLlib")
	s.Meta("dataset", "synth")
	s.SetStep(1, 0)
	s.SpanProc("driver", PhaseSchedule, 0, 0.001, "schedule mgd1", procID(""))
	s.MessageProc("driver", PhaseBroadcast, ChanDriver, DirSend, EncDense, 8000, 0.001, 0.003, "", procID(""), 0)
	s.MessageProc("executor0", PhaseBroadcast, ChanDriver, DirRecv, EncDense, 8000, 0.003, 0.005, "", procID(""), 0)
	s.SpanProc("executor0", PhaseCompute, 0.005, 0.015, "", procID(""))
	s.MessageProc("executor0", PhaseTreeAgg, ChanDriver, DirSend, EncSparse, 1200, 0.015, 0.016, "", procID(""), 0)
	s.MessageProc("driver", PhaseTreeAgg, ChanDriver, DirRecv, EncSparse, 1200, 0.016, 0.017, "", procID(""), 0)
	s.SpanProc("driver", PhaseUpdate, 0.017, 0.018, "model update", procID(""))
	s.Updates(1, "driver", 1, 0.018)
	s.Eval(1, "", 0.018, 0.5, 0)
	s.SetStep(2, 0.018)
	s.SpanProc("executor0", PhaseCompute, 0.019, 0.029, "", procID(""))
	s.MessageProc("executor0", PhaseReduceScatter, ChanShuffle, DirSend, EncDense, 4000, 0.029, 0.030, "", procID(""), 0)
	s.MessageProc("executor1", PhaseReduceScatter, ChanShuffle, DirRecv, EncDense, 4000, 0.030, 0.031, "", procID(""), 0)
	s.Eval(2, "", 0.031, 0.25, 2)
	return s
}

func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleSink().Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

func TestExpositionDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := sampleSink().Registry().WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := sampleSink().Registry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical replays produced different expositions")
	}
}

// TestReplayMatchesLive is the core log-replay contract: feeding a sink's
// own event log through SinkFromEvents reproduces its registry exactly.
func TestReplayMatchesLive(t *testing.T) {
	live := sampleSink()
	replayed := SinkFromEvents(live.Events())
	var a, b bytes.Buffer
	if err := live.Registry().WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := replayed.Registry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("replayed registry differs:\nlive:\n%s\nreplayed:\n%s", a.Bytes(), b.Bytes())
	}
	if !reflect.DeepEqual(live.Events(), replayed.Events()) {
		t.Error("replayed event log differs from live event log")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := sampleSink().Events()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, got) {
		t.Errorf("round trip changed events:\nbefore %+v\nafter  %+v", events, got)
	}
}

func TestJSONLNegativeZeroRoundTrip(t *testing.T) {
	in := []Event{{Step: 1, Phase: PhaseEval, Loss: math.Copysign(0, -1)}}
	var a bytes.Buffer
	if err := WriteJSONL(&a, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := WriteJSONL(&b, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("-0 did not survive the round trip: %q vs %q", a.Bytes(), b.Bytes())
	}
}

func TestClassifyTag(t *testing.T) {
	cases := []struct {
		tag string
		ph  Phase
		ch  Channel
	}{
		{"task", PhaseBroadcast, ChanDriver},
		{"res:3", PhaseTreeAgg, ChanDriver},
		{"agg:mgd7", PhaseTreeAgg, ChanShuffle},
		{"xch:rs:s1", PhaseReduceScatter, ChanShuffle},
		{"xch:ag:s1", PhaseAllGather, ChanShuffle},
		{"xch:bc4", PhaseBroadcast, ChanBroadcast},
		{"xch:shuffle0", PhaseShuffle, ChanShuffle},
		{"ps.req0", PhaseComm, ChanPS},
		{"ps.pull.w2", PhaseComm, ChanPS},
		{"misc", PhaseComm, ChanOther},
	}
	for _, c := range cases {
		ph, ch := ClassifyTag(c.tag)
		if ph != c.ph || ch != c.ch {
			t.Errorf("ClassifyTag(%q) = (%s, %s), want (%s, %s)", c.tag, ph, ch, c.ph, c.ch)
		}
	}
}

func TestNilSinkIsSafe(t *testing.T) {
	var s *Sink
	s.SetStep(1, 0)
	s.SpanProc("n", PhaseCompute, 0, 1, "", nil)
	s.MessageProc("n", PhaseComm, ChanOther, DirSend, EncDense, 1, 0, 1, "t", nil, s.NewMID())
	s.CausalFork("n", nil, nil, 0)
	s.CausalBarrier("b", 0, nil, 0, 1)
	s.CausalSpec("n", "rate=1")
	s.Stage("n", "s", 0, 1)
	s.Eval(1, "n", 1, 0.5, 0)
	s.Updates(1, "n", 1, 1)
	s.Meta("k", "v")
	if s.Len() != 0 || s.Events() != nil || s.Registry() != nil || s.Step() != 0 {
		t.Error("nil sink should observe nothing")
	}
}

func TestEnableDisable(t *testing.T) {
	defer Disable()
	if Active() != nil {
		t.Fatal("sink active before Enable")
	}
	s := Enable()
	if Active() != s {
		t.Fatal("Enable did not install the sink")
	}
	Active().Meta("k", "v")
	if s.Len() != 1 {
		t.Fatal("event not recorded through Active")
	}
	Disable()
	if Active() != nil {
		t.Fatal("Disable did not uninstall the sink")
	}
}

func TestRegistryPanics(t *testing.T) {
	reg := NewRegistry()
	f := reg.Counter("c_total", "help", "l")
	mustPanic(t, "negative counter", func() { f.add(-1, "x") })
	mustPanic(t, "label arity", func() { f.add(1) })
	mustPanic(t, "redeclare shape", func() { reg.Gauge("c_total", "help", "l") })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestCurveFromEvents(t *testing.T) {
	c := CurveFromEvents(sampleSink().Events())
	if c.System != "MLlib" || c.Dataset != "synth" {
		t.Errorf("curve labels = %q/%q", c.System, c.Dataset)
	}
	if c.Len() != 2 || c.Final().Objective != 0.25 || c.Final().Step != 2 {
		t.Errorf("curve points wrong: %+v", c.Points)
	}
}

func TestAttribute(t *testing.T) {
	events := sampleSink().Events()
	r := Attribute(events)
	if r.System != "MLlib" || r.Dataset != "synth" {
		t.Errorf("labels = %q/%q", r.System, r.Dataset)
	}
	if r.Steps != 2 {
		t.Fatalf("steps = %d", r.Steps)
	}
	if r.TotalBytes != 8000+1200+4000 {
		t.Errorf("total bytes = %g", r.TotalBytes)
	}
	if r.BytesByChannel[ChanDriver] != 9200 || r.BytesByChannel[ChanShuffle] != 4000 {
		t.Errorf("bytes by channel = %v", r.BytesByChannel)
	}
	if r.BytesByEnc[EncSparse] != 1200 {
		t.Errorf("bytes by enc = %v", r.BytesByEnc)
	}
	if r.UpdatesPerStep != 0.5 || r.UpdatePattern != "single-update" {
		t.Errorf("updates/step = %g (%s)", r.UpdatesPerStep, r.UpdatePattern)
	}
	st := r.PerStep[0]
	if st.Step != 1 || !st.HasLoss || st.Loss != 0.5 || st.Updates != 1 {
		t.Errorf("step 1 stat: %+v", st)
	}
	// Step 1: driver busy = schedule(1ms) + send(2ms) + recv(1ms) + update(1ms)
	const eps = 1e-12
	if math.Abs(st.Driver-0.005) > eps {
		t.Errorf("step 1 driver busy = %g", st.Driver)
	}
	// executor0 compute path = 10ms, comm = recv(2ms)+send(1ms).
	if math.Abs(st.Compute-0.010) > eps || math.Abs(st.Network-0.003) > eps {
		t.Errorf("step 1 compute=%g network=%g", st.Compute, st.Network)
	}
	if st.Dominant != "compute" {
		t.Errorf("step 1 dominant = %s", st.Dominant)
	}
	text := r.Text()
	for _, want := range []string{"system=MLlib", "dataset=synth", "steps=2", "dominant cost:", "classification:"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	if r.Text() != r.Text() {
		t.Error("Text() not deterministic")
	}
}

func TestAttributeDominantDriver(t *testing.T) {
	events := []Event{
		{Step: 1, Phase: PhaseStep},
		{Step: 1, Node: "driver", Phase: PhaseTreeAgg, Dir: DirRecv, Chan: ChanDriver, Enc: EncDense, Bytes: 1000, Start: 0, End: 0.9},
		{Step: 1, Node: "executor0", Phase: PhaseCompute, Start: 0, End: 0.1},
		{Step: 1, Node: "driver", Phase: PhaseUpdate, Start: 0.9, End: 1},
		{Step: 1, Node: "driver", Phase: PhaseUpdates, Count: 1, Start: 1, End: 1},
	}
	r := Attribute(events)
	if r.DominantCost != "driver" {
		t.Fatalf("dominant = %s, want driver", r.DominantCost)
	}
	if !strings.Contains(r.Classification, "B1+B2") {
		t.Errorf("classification = %q", r.Classification)
	}
}

func TestUnionLen(t *testing.T) {
	cases := []struct {
		iv   []interval
		want float64
	}{
		{nil, 0},
		{[]interval{{0, 1}}, 1},
		{[]interval{{0, 1}, {2, 3}}, 2},
		{[]interval{{0, 2}, {1, 3}}, 3},
		{[]interval{{1, 3}, {0, 10}, {2, 4}}, 10},
	}
	for _, c := range cases {
		if got := unionLen(append([]interval(nil), c.iv...)); got != c.want {
			t.Errorf("unionLen(%v) = %g, want %g", c.iv, got, c.want)
		}
	}
}
