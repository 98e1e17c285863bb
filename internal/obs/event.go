package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
)

// Event is one record of the superstep event log: a (superstep, node, phase)
// observation carrying its virtual-time span and, depending on the phase,
// message bytes, SSP staleness, a loss value, or an update count.
//
// The JSONL encoding is the interchange format between a live run, the
// committed sample logs, and cmd/mlstar-obs. Field presence follows the
// phase: message events set Dir/Chan/Enc/Bytes; eval events set Loss (and
// Stale under SSP); update-counter events set Count; meta events hold a
// key=value pair in Note. Float fields deliberately avoid omitempty so the
// encoding round-trips bit-exactly (omitting -0 or re-adding it would not).
//
// The causal fields (Proc, MID, Grp) are populated only under EnableCausal;
// all three carry omitempty so a causal-off log encodes byte-identically to
// a pre-causal one.
type Event struct {
	Step  int      `json:"step"`
	Node  string   `json:"node,omitempty"`
	Phase Phase    `json:"phase"`
	Dir   Dir      `json:"dir,omitempty"`
	Chan  Channel  `json:"chan,omitempty"`
	Enc   Encoding `json:"enc,omitempty"`
	Bytes float64  `json:"bytes"`
	Start float64  `json:"start"`
	End   float64  `json:"end"`
	Stale int      `json:"stale,omitempty"`
	Loss  float64  `json:"loss"`
	Count int64    `json:"count,omitempty"`
	Note  string   `json:"note,omitempty"`
	Proc  string   `json:"proc,omitempty"` // causal: des process identity ("name#id") that produced the event
	MID   int64    `json:"mid,omitempty"`  // causal: message id pairing a send half with its recv half
	Grp   string   `json:"grp,omitempty"`  // causal: group key (barrier generation, forked child identity)
}

// WriteJSONL writes one JSON object per line, each byte for byte what
// encoding/json would emit for the Event: struct fields in declaration
// order, shortest-form floats. The output is a canonical, deterministic
// function of the events.
func WriteJSONL(w io.Writer, events []Event) error {
	jw := newJSONLWriter(w)
	if err := jw.write(events); err != nil {
		return err
	}
	return jw.flush()
}

// jsonlFlush is the buffered size at which a jsonlWriter hands its buffer to
// the underlying writer.
const jsonlFlush = 32 << 10

// jsonlWriter encodes events into one reused buffer. Sink.WriteJSONL feeds
// it one storage block at a time; n numbers events across the calls for the
// error message.
type jsonlWriter struct {
	w   io.Writer
	buf []byte
	n   int
}

func newJSONLWriter(w io.Writer) *jsonlWriter {
	return &jsonlWriter{w: w, buf: make([]byte, 0, jsonlFlush+1024)}
}

func (jw *jsonlWriter) write(events []Event) error {
	for i := range events {
		b, err := appendEvent(jw.buf, &events[i])
		if err != nil {
			return fmt.Errorf("obs: encoding event %d: %w", jw.n, err)
		}
		jw.buf = append(b, '\n')
		jw.n++
		if len(jw.buf) >= jsonlFlush {
			if err := jw.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (jw *jsonlWriter) flush() error {
	_, err := jw.w.Write(jw.buf)
	jw.buf = jw.buf[:0]
	return err
}

// appendEvent appends e's JSON object to b: the fixed Event schema written
// out by hand, equal byte for byte to encoding/json's encoding of e — same
// field order, same omitempty rules (a float field is never omitted), same
// number and string forms — and failing on the same values (a NaN or
// infinite float) with the same error. FuzzEventEncode holds it to that.
func appendEvent(b []byte, e *Event) ([]byte, error) {
	// encoding/json fails on the first non-finite float in field order.
	for _, f := range [...]float64{e.Bytes, e.Start, e.End, e.Loss} {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
	}
	b = append(b, `{"step":`...)
	b = strconv.AppendInt(b, int64(e.Step), 10)
	if e.Node != "" {
		b = appendJSONString(append(b, `,"node":`...), e.Node)
	}
	b = appendJSONString(append(b, `,"phase":`...), string(e.Phase))
	if e.Dir != "" {
		b = appendJSONString(append(b, `,"dir":`...), string(e.Dir))
	}
	if e.Chan != "" {
		b = appendJSONString(append(b, `,"chan":`...), string(e.Chan))
	}
	if e.Enc != "" {
		b = appendJSONString(append(b, `,"enc":`...), string(e.Enc))
	}
	b = appendJSONFloat(append(b, `,"bytes":`...), e.Bytes)
	b = appendJSONFloat(append(b, `,"start":`...), e.Start)
	b = appendJSONFloat(append(b, `,"end":`...), e.End)
	if e.Stale != 0 {
		b = strconv.AppendInt(append(b, `,"stale":`...), int64(e.Stale), 10)
	}
	b = appendJSONFloat(append(b, `,"loss":`...), e.Loss)
	if e.Count != 0 {
		b = strconv.AppendInt(append(b, `,"count":`...), e.Count, 10)
	}
	if e.Note != "" {
		b = appendJSONString(append(b, `,"note":`...), e.Note)
	}
	if e.Proc != "" {
		b = appendJSONString(append(b, `,"proc":`...), e.Proc)
	}
	if e.MID != 0 {
		b = strconv.AppendInt(append(b, `,"mid":`...), e.MID, 10)
	}
	if e.Grp != "" {
		b = appendJSONString(append(b, `,"grp":`...), e.Grp)
	}
	return append(b, '}'), nil
}

// appendJSONFloat appends a finite f the way encoding/json formats a float64:
// the shortest decimal that round-trips, in plain notation except below 1e-6
// and from 1e21 up, where the exponent form drops the leading zero of a
// two-digit negative exponent (1e-07 -> 1e-7). -0 keeps its sign.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s as a JSON string. Event strings are identifiers
// — node names, phases, mailbox tags, key=value notes — so the path written
// here covers printable ASCII that needs no escape; a string holding
// anything else (a quote, a backslash, the HTML-sensitive < > &, a control
// byte, any non-ASCII byte) goes to encoding/json, whose escaping rules then
// apply by construction.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, err := json.Marshal(s)
			if err != nil {
				panic("obs: encoding/json rejected a string: " + err.Error()) // cannot happen: every Go string marshals
			}
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// ReadJSONL parses an event log written by WriteJSONL, skipping blank lines.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading events: %w", err)
	}
	return events, nil
}
