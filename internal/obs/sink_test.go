package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mllibstar/internal/des"
)

// TestEventEncodeTable walks the encoder through every rule it re-implements:
// the float notation switch at 1e-6 and 1e21 with the exponent clean-up, -0,
// the extremes, each omitempty field at zero and non-zero, and the strings
// that need escaping (delegated to encoding/json) next to those that do not.
func TestEventEncodeTable(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1200, 0.015,
		5e-324, 2.2250738585072014e-308, // smallest subnormal, smallest normal
		1e-7, 9.999999e-7, 1e-6, 1.0000001e-6, 1e-9, 1e-10, 1.5e-11, -1e-7,
		1e20, 9.99999999999e20, 1e21, 1.5e21, -1e21, 1e22, 1e100,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		123456789.125, 1 << 53, 0.30000000000000004,
	}
	for _, f := range floats {
		requireEncodesLikeJSON(t, Event{Phase: PhaseEval, Bytes: f, Start: -f, End: f / 3, Loss: f})
	}
	strs := []string{
		"", "driver", "executor12", "xch:rs:s1", "system=MLlib*", "a b~", "lbfgs-it3@0", "task:mgd3#17",
		`quo"te`, `back\slash`, "<tag>", "a&b", "tab\t", "nl\n", "cr\r", "\b\f", "\x00", "\x1f", "\x7f",
		"caf\u00e9", "\u2028", "\u2029", "\xff", "ok\xc3", "\xed\xa0\x80", "日本",
	}
	for _, s := range strs {
		requireEncodesLikeJSON(t, Event{Node: s, Phase: Phase(s), Dir: Dir(s), Chan: Channel(s), Enc: Encoding(s), Note: s, Proc: s, Grp: s})
	}
	// Every omitempty field alone, at a non-zero value; the zero Event has
	// them all at zero.
	requireEncodesLikeJSON(t, Event{})
	for _, e := range []Event{
		{Step: -3}, {Node: "n"}, {Phase: PhaseStep}, {Dir: DirSend}, {Chan: ChanPS}, {Enc: EncSparse},
		{Stale: 2}, {Stale: -2}, {Count: 7}, {Count: math.MinInt64}, {Note: "n"}, {Proc: "p#1"},
		{MID: 9}, {MID: math.MaxInt64}, {Grp: "g@0"}, {Step: math.MaxInt64},
	} {
		requireEncodesLikeJSON(t, e)
	}
	for _, e := range sampleSink().Events() {
		requireEncodesLikeJSON(t, e)
	}
}

// TestWriteJSONLRejectsNonFinite pins the failure WriteJSONL has always had:
// the error text, the index of the offending event, and the error type.
func TestWriteJSONLRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{math.NaN(), "obs: encoding event 1: json: unsupported value: NaN"},
		{math.Inf(1), "obs: encoding event 1: json: unsupported value: +Inf"},
		{math.Inf(-1), "obs: encoding event 1: json: unsupported value: -Inf"},
	} {
		for field, e := range []Event{{Bytes: tc.v}, {Start: tc.v}, {End: tc.v}, {Loss: tc.v}} {
			events := []Event{{Phase: PhaseMeta}, e}
			err := WriteJSONL(io.Discard, events)
			if err == nil || err.Error() != tc.want {
				t.Errorf("float field %d = %v: error %v, want %q", field, tc.v, err, tc.want)
			}
			var unsupported *json.UnsupportedValueError
			if !errors.As(err, &unsupported) {
				t.Errorf("float field %d = %v: error %T does not unwrap to *json.UnsupportedValueError", field, tc.v, err)
			}
			if sinkErr := SinkFromEvents(events).WriteJSONL(io.Discard); sinkErr == nil || sinkErr.Error() != tc.want {
				t.Errorf("Sink.WriteJSONL, float field %d = %v: error %v, want %q", field, tc.v, sinkErr, tc.want)
			}
		}
	}
}

// TestCausalProcIDMatchesDesIdent pins the identity des builds for itself —
// des cannot import this package — to the format documented here.
func TestCausalProcIDMatchesDesIdent(t *testing.T) {
	sim := des.New()
	a := sim.Spawn("driver:mgd", func(*des.Proc) {})
	b := sim.Spawn("send", func(*des.Proc) {})
	sim.Run()
	for _, p := range []*des.Proc{a, b} {
		if got, want := p.Ident(), CausalProcID(p.Name(), p.ID()); got != want {
			t.Errorf("des.Proc.Ident() = %q, CausalProcID = %q", got, want)
		}
	}
}

// procID is a recording process's identity; a live run passes des.Proc.
type procID string

func (p procID) Ident() string { return string(p) }

// syntheticLog builds n events through the live hooks, cycling through every
// kind of event the registry books and a step transition every 50 events.
func syntheticLog(n int) *Sink {
	s := NewSink()
	s.Meta("system", "synthetic")
	for i := 1; s.Len() < n; i++ {
		now := float64(i) * 0.001
		node := fmt.Sprintf("executor%d", i%4)
		switch i % 10 {
		case 0:
			if i%50 == 0 {
				s.SetStep(i/50, now)
			} else {
				s.Stage("driver", "stage", now-0.001, now)
			}
		case 1, 2:
			s.MessageProc(node, PhaseReduceScatter, ChanShuffle, DirSend, EncSparse, float64(100+i%7), now, now+0.0003, "xch:rs:s1", procID("task#1"), s.NewMID())
		case 3, 4:
			s.MessageProc(node, PhaseReduceScatter, ChanShuffle, DirRecv, EncSparse, float64(100+i%7), now, now+0.0002, "xch:rs:s1", procID("task#2"), int64(i))
		case 5:
			s.MessageProc("driver", PhaseTreeAgg, ChanDriver, DirSend, EncDense, 8000, now, now+0.0007, "", procID(""), 0)
		case 6:
			s.SpanProc(node, PhaseCompute, now, now+0.0009, "", procID("task#1"))
		case 7:
			s.Eval(s.Step(), "", now, 1/float64(i), i%3)
		case 8:
			s.Updates(s.Step(), node, int64(i%5+1), now)
		case 9:
			s.MessageProc(node, PhasePSPush, ChanPS, DirSend, EncDense, float64(800+i%5), now, now+0.0001*float64(i%9), "ps.req", procID("worker#3"), s.NewMID())
		}
	}
	return s
}

func expositionOf(t *testing.T, s *Sink) string {
	t.Helper()
	var b bytes.Buffer
	if err := s.Registry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRegistryCatchUp pins the fold-on-read contract: a registry read while
// a log is recorded — exactly at and just past a block boundary, at odd
// points — is the registry of the prefix recorded so far, and it leaves the
// registry read at the end equal to a single read and to a replay of the
// log.
func TestRegistryCatchUp(t *testing.T) {
	const n = 2*blockEvents + 100
	events := syntheticLog(n).Events()
	if len(events) != n {
		t.Fatalf("synthetic log has %d events, want %d", len(events), n)
	}
	want := expositionOf(t, SinkFromEvents(events))
	for _, must := range []string{"mlstar_superstep_seconds_count", "mlstar_comm_bytes_total{", `mlstar_comm_bytes_total{channel="ps"`, "mlstar_updates_total"} {
		if !strings.Contains(want, must) {
			t.Fatalf("synthetic log leaves %s unexercised:\n%s", must, want)
		}
	}
	if got := expositionOf(t, syntheticLog(n)); got != want {
		t.Errorf("live registry, one read at the end, differs from the replay")
	}
	s := NewSink()
	for _, cut := range []int{1, 7, blockEvents, blockEvents + 1, 2*blockEvents - 3} {
		for i := s.Len(); i < cut; i++ {
			s.record(events[i])
		}
		if got, prefix := expositionOf(t, s), expositionOf(t, SinkFromEvents(events[:cut])); got != prefix {
			t.Errorf("registry read after %d events differs from a replay of those events:\ngot:\n%s\nwant:\n%s", cut, got, prefix)
		}
	}
	for i := s.Len(); i < n; i++ {
		s.record(events[i])
	}
	if got := expositionOf(t, s); got != want {
		t.Errorf("registry read at the end, after reads in the middle, differs from one read at the end:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got := expositionOf(t, s); got != want {
		t.Errorf("a second read with nothing new recorded changed the exposition")
	}
}

// TestBlockBoundaries round-trips logs that end just below, exactly at and
// just past a storage block boundary through every reader of the blocks.
func TestBlockBoundaries(t *testing.T) {
	all := syntheticLog(2*blockEvents + 1).Events()
	for _, n := range []int{0, 1, blockEvents - 1, blockEvents, blockEvents + 1, 2 * blockEvents, 2*blockEvents + 1} {
		events := all[:n]
		s := SinkFromEvents(events)
		if s.Len() != n {
			t.Errorf("n = %d: Len() = %d", n, s.Len())
		}
		got := s.Events()
		if len(got) != n || (n > 0 && !reflect.DeepEqual(got, events)) {
			t.Errorf("n = %d: Events() returned %d events that differ from the %d recorded", n, len(got), n)
		}
		if n > 0 {
			// Events is a copy the caller owns: scribbling on it must not
			// reach the log.
			got[n-1].Node = "scribble"
			if again := s.Events(); again[n-1].Node != events[n-1].Node {
				t.Errorf("n = %d: Events() aliases the log", n)
			}
		}
		var fromSink, fromSlice bytes.Buffer
		if err := s.WriteJSONL(&fromSink); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSONL(&fromSlice, events); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromSink.Bytes(), fromSlice.Bytes()) {
			t.Errorf("n = %d: Sink.WriteJSONL differs from WriteJSONL of the same events", n)
		}
		back, err := ReadJSONL(&fromSink)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != n || (n > 0 && !reflect.DeepEqual(back, events)) {
			t.Errorf("n = %d: the written log reads back as %d different events", n, len(back))
		}
	}
}

// TestSinkRecordAllocs is the allocation guard of the write path: recording
// costs the log's own blocks and nothing per event, and writing the log out
// costs a constant number of objects however long it is.
func TestSinkRecordAllocs(t *testing.T) {
	const n = 100_000
	var s *Sink
	record := func() {
		s = NewSink()
		for i := 0; i < n; i++ {
			now := float64(i) * 1e-4
			dir := DirSend
			if i%2 == 1 {
				dir = DirRecv
			}
			s.MessageProc("executor3", PhaseReduceScatter, ChanShuffle, dir, EncSparse, 1200, now, now+5e-5,
				"xch:rs:s1", procID("task:mgd3#17"), s.NewMID())
		}
	}
	// The empty sink's set-up is measured and taken off.
	setup := testing.AllocsPerRun(5, func() { s = NewSink() })
	blocks := float64((n + blockEvents - 1) / blockEvents)
	if got := testing.AllocsPerRun(5, record) - setup; got > blocks+8 {
		t.Errorf("recording %d events allocated %.0f objects beyond the sink's set-up, want at most %.0f (one per block + 8)", n, got, blocks+8)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	record()
	runtime.ReadMemStats(&after)
	eventBytes := float64(reflect.TypeOf(Event{}).Size())
	if got, limit := float64(after.TotalAlloc-before.TotalAlloc), 1.1*eventBytes*n; got > limit {
		t.Errorf("recording %d events allocated %.0f bytes, want at most %.0f (1.1 × %.0f × n)", n, got, limit, eventBytes)
	}
	if s.Len() != n {
		t.Fatalf("recorded %d events, want %d", s.Len(), n)
	}
	// Writing: the encoder's buffer and the writer — not one object per
	// event or per line.
	if got := testing.AllocsPerRun(3, func() {
		if err := s.WriteJSONL(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); got > 8 {
		t.Errorf("WriteJSONL of %d events allocated %.0f objects, want a constant (at most 8)", n, got)
	}
}
