package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mllibstar/internal/obs"
)

// TestFig3GanttGolden pins the rendered Figure-3 gantts — the ASCII chart at
// width 100 and the SVG at width 900 of each of the three runs — to the
// committed testdata/gantt_*.golden files byte for byte. The CSVs of the
// same runs are pinned by results/fig3_*_gantt.csv; regenerate with
//
//	go test ./internal/bench -run TestFig3GanttGolden -update
func TestFig3GanttGolden(t *testing.T) {
	for _, system := range []string{sysMLlib, sysMAvg, sysMLlibStar} {
		gantt, _, err := fig3Trace(system, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, out := range []struct {
			form, got string
		}{
			{"ascii", gantt.ASCII(100)},
			{"svg", gantt.SVG(fmt.Sprintf("%s · cluster activity", system), 900)},
		} {
			path := filepath.Join("testdata", "gantt_"+safe(system)+"_"+out.form+".golden")
			if *updateObs {
				if err := os.WriteFile(path, []byte(out.got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to generate)", err)
			}
			if out.got != string(want) {
				t.Errorf("%s: %s gantt drifted from %s", system, out.form, path)
			}
		}
	}
}

// TestGanttReplayEqualsLive: the gantt of a causal MLlib* run is the same
// chart whether it is built from the live sink or from the sink's JSONL log
// read back — ASCII, CSV and SVG alike.
func TestGanttReplayEqualsLive(t *testing.T) {
	s := sampleLog(t, sysMLlibStar)
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	live, replay := obs.GanttFromEvents(s.Events()), obs.GanttFromEvents(events)
	if len(live.Spans) == 0 || len(live.Markers) == 0 {
		t.Fatalf("live gantt has %d spans and %d markers", len(live.Spans), len(live.Markers))
	}
	for _, form := range []struct {
		name         string
		live, replay string
	}{
		{"ascii", live.ASCII(100), replay.ASCII(100)},
		{"csv", live.CSV(), replay.CSV()},
		{"svg", live.SVG("MLlib*", 900), replay.SVG("MLlib*", 900)},
	} {
		if form.live != form.replay {
			t.Errorf("%s: the replayed gantt differs from the live one", form.name)
		}
	}
}
