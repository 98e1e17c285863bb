package causal

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mllibstar/internal/obs"
)

// FuzzCausalGraph drives arbitrary JSONL through the whole pipeline — build,
// validate, critical path, re-time under every scenario family, and the
// -critpath and -whatif reports of mlstar-obs — and pins that nothing
// panics, that the invariants that survive validation hold (the path
// decomposition telescopes and every successful prediction is finite), and
// that the analysis never writes the log its nodes read in place.
func FuzzCausalGraph(f *testing.F) {
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, synthEvents()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, slug := range []string{"mllib", "mllibstar"} {
		if raw, err := os.ReadFile(filepath.Join("..", "bench", "testdata", "obs_events_"+slug+".jsonl")); err == nil {
			f.Add(raw)
		}
	}
	f.Add([]byte(`{"phase":"cp-spec","note":"latency=0.1;overhead=-5"}` + "\n" +
		`{"phase":"compute","node":"a","proc":"w#1","start":0,"end":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := obs.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		before := hashEvents(events)
		defer func() {
			if after := hashEvents(events); after != before {
				t.Errorf("the analysis wrote the event log: hash %x before, %x after", before, after)
			}
		}()
		g, err := Analyze(events)
		if err != nil {
			return
		}
		mk := g.Makespan()
		p := CriticalPath(g)
		if sum := p.Busy + p.Latency + p.Wait; math.Abs(sum-p.Makespan) > 1e-6*math.Max(1, math.Abs(mk)) {
			t.Errorf("decomposition %g does not telescope to makespan %g", sum, p.Makespan)
		}
		_ = p.Text(5)
		_ = WhatIfText(g, WhatIf(g, StandardScenarios(g)))
		for _, sc := range append(StandardScenarios(g),
			Scenario{Name: "chunks=3", Chunks: 3},
			Scenario{Name: "overlap", Overlap: true, Chunks: 3},
			Scenario{Name: "everything", CommScale: 0.25, ComputeScale: 4, LatencyScale: 0, DriverZero: true},
		) {
			pr := Retime(g, sc)
			if pr.Err != "" {
				continue
			}
			if math.IsNaN(pr.Makespan) || math.IsInf(pr.Makespan, 0) {
				t.Errorf("%s: non-finite predicted makespan %g", sc.Name, pr.Makespan)
			}
		}
	})
}

// hashEvents is an FNV-64 of every field of every event (%#v prints floats
// in their shortest exact form).
func hashEvents(events []obs.Event) uint64 {
	h := fnv.New64a()
	for i := range events {
		fmt.Fprintf(h, "%#v\n", events[i])
	}
	return h.Sum64()
}
