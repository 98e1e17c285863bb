package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Times are host nanoseconds since the tracer started; Parent is the index of
// the span that caused it, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps the spans of a traced run in memory until the run ends. A nil
// tracer records nothing, which is how the untraced run measures: the same
// code path with every begin and end a no-op. It is used from the
// benchmark's own goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// seconds returns the duration of span id.
func (t *tracer) seconds(id int) float64 {
	return float64(t.spans[id].End-t.spans[id].Start) / 1e9
}

// durations returns the duration in seconds of every span with the name that
// started at or after index from.
func (t *tracer) durations(name string, from int) []float64 {
	var out []float64
	if t == nil {
		return out
	}
	for i := from; i < len(t.spans); i++ {
		if t.spans[i].Name == name {
			out = append(out, t.seconds(i))
		}
	}
	return out
}

// writeFile dumps the spans as one JSON array.
func (t *tracer) writeFile(path string) error {
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// timed records fn as one span and returns its duration in seconds.
func (t *tracer) timed(name string, parent int, fn func()) float64 {
	id := t.begin(name, parent)
	fn()
	t.end(id)
	return t.seconds(id)
}
