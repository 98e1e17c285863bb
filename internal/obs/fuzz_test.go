package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"
)

// FuzzEventRoundTrip checks the canonical-encoding property of the JSONL
// log: marshal → unmarshal → marshal is byte-identical, including negative
// zeros, denormals, and extreme exponents in the float fields. (NaN and the
// infinities are not JSON-encodable and never appear in events: virtual
// times are finite and the objective is a finite loss value.)
func FuzzEventRoundTrip(f *testing.F) {
	f.Add(1, "driver", "compute", "", "", "", uint64(0), uint64(0), uint64(0), 0, uint64(0), int64(0), "")
	f.Add(3, "executor0", "tree-agg", "s", "driver", "sparse",
		math.Float64bits(1200), math.Float64bits(0.015), math.Float64bits(0.016), 0, math.Float64bits(0), int64(0), "")
	f.Add(7, "", "eval", "", "", "",
		math.Float64bits(0), math.Float64bits(1.5), math.Float64bits(1.5), 2, math.Float64bits(math.Copysign(0, -1)), int64(0), "")
	f.Add(0, "", "meta", "", "", "", uint64(0), uint64(0), uint64(0), 0, uint64(0), int64(0), "system=MLlib*")
	f.Add(2, "worker1", "updates", "", "", "", uint64(0), math.Float64bits(5e-324), math.Float64bits(1e308), 0, uint64(0), int64(412), "")
	f.Fuzz(func(t *testing.T, step int, node, phase, dir, ch, enc string,
		bits, startBits, endBits uint64, stale int, lossBits uint64, count int64, note string) {

		e := Event{
			Step: step, Node: node, Phase: Phase(phase), Dir: Dir(dir),
			Chan: Channel(ch), Enc: Encoding(enc),
			Bytes: math.Float64frombits(bits),
			Start: math.Float64frombits(startBits),
			End:   math.Float64frombits(endBits),
			Stale: stale,
			Loss:  math.Float64frombits(lossBits),
			Count: count, Note: note,
		}
		if !finite(e.Bytes) || !finite(e.Start) || !finite(e.End) || !finite(e.Loss) {
			t.Skip("non-finite floats are not JSON-encodable and never occur")
		}
		for _, s := range []string{node, phase, dir, ch, enc, note} {
			if !utf8.ValidString(s) {
				// json.Marshal substitutes U+FFFD for invalid UTF-8, which is
				// lossy; event strings are ASCII identifiers in practice.
				t.Skip("invalid UTF-8 never occurs in event strings")
			}
		}
		var a bytes.Buffer
		if err := WriteJSONL(&a, []Event{e}); err != nil {
			t.Fatalf("marshal: %v", err)
		}
		decoded, err := ReadJSONL(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("unmarshal %q: %v", a.Bytes(), err)
		}
		if len(decoded) != 1 {
			t.Fatalf("decoded %d events from one line", len(decoded))
		}
		var b bytes.Buffer
		if err := WriteJSONL(&b, decoded); err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("round trip not canonical:\n%q\n%q", a.Bytes(), b.Bytes())
		}
		// Bit-exactness of the floats specifically.
		d := decoded[0]
		for _, pair := range [][2]float64{{e.Bytes, d.Bytes}, {e.Start, d.Start}, {e.End, d.End}, {e.Loss, d.Loss}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Errorf("float changed bits: %x -> %x", math.Float64bits(pair[0]), math.Float64bits(pair[1]))
			}
		}
	})
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// requireEncodesLikeJSON holds appendEvent to its contract on one event: the
// bytes encoding/json would produce, or the same failure.
func requireEncodesLikeJSON(t *testing.T, e Event) {
	t.Helper()
	want, wantErr := json.Marshal(&e)
	// A non-empty prefix checks that the encoder appends rather than overwrites.
	got, gotErr := appendEvent([]byte("x"), &e)
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("%+v: appendEvent error %v, encoding/json error %v", e, gotErr, wantErr)
		}
		return
	}
	if string(got) != "x"+string(want) {
		t.Fatalf("%+v:\nappendEvent   %s\nencoding/json x%s", e, got, want)
	}
}

// FuzzEventEncode is the exactness contract of the JSONL writer: for every
// Event — any float bit pattern, any byte string — the hand-written encoder
// produces encoding/json's bytes, or both refuse the event with the same
// error. The committed logs and every golden derived from them depend on it.
func FuzzEventEncode(f *testing.F) {
	f.Add(1, "driver", "compute", "", "", "", uint64(0), uint64(0), uint64(0), 0, uint64(0), int64(0), "", "", int64(0), "")
	f.Add(3, "executor0", "tree-agg", "s", "driver", "sparse",
		math.Float64bits(1200), math.Float64bits(0.015), math.Float64bits(0.016), 0, math.Float64bits(0), int64(0),
		"agg:mgd3", "task:mgd3#17", int64(412), "")
	f.Add(-7, "", "eval", "", "", "",
		math.Float64bits(math.Copysign(0, -1)), math.Float64bits(1e-7), math.Float64bits(1e21), -2,
		math.Float64bits(5e-324), int64(-1), "", "", int64(-9), "lbfgs-it3@0")
	f.Add(0, "a\"b\\c", "<&>", "\x00\x1f", "\u2028\u2029", "\xff\xfe", math.Float64bits(1e-6), math.Float64bits(1e20),
		math.Float64bits(math.MaxFloat64), 0, math.Float64bits(math.NaN()), int64(0), "caf\u00e9\t\n", "\x7f", int64(0), "~ ")
	f.Add(0, "", "", "", "", "", math.Float64bits(math.Inf(1)), uint64(0), uint64(0), 0, math.Float64bits(math.Inf(-1)), int64(0), "", "", int64(0), "")
	f.Fuzz(func(t *testing.T, step int, node, phase, dir, ch, enc string,
		bits, startBits, endBits uint64, stale int, lossBits uint64, count int64, note, proc string, mid int64, grp string) {

		requireEncodesLikeJSON(t, Event{
			Step: step, Node: node, Phase: Phase(phase), Dir: Dir(dir),
			Chan: Channel(ch), Enc: Encoding(enc),
			Bytes: math.Float64frombits(bits),
			Start: math.Float64frombits(startBits),
			End:   math.Float64frombits(endBits),
			Stale: stale,
			Loss:  math.Float64frombits(lossBits),
			Count: count, Note: note, Proc: proc, MID: mid, Grp: grp,
		})
	})
}
