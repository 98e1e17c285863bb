package causal

import (
	"os"
	"path/filepath"
	"testing"

	"mllibstar/internal/obs"
)

// TestBuildAllocs guards the node arena: Build reads the events in place
// into one []Node with every Preds a window of one edge slab, and Retime
// lowers into one rnode slab with one successor slab, so neither allocates
// per node. On the committed MLlib* sample log (736 nodes) Build measured
// 180 allocations and an identity Retime 22; before the arena they were
// 2 180 and 2 676, three or four per node. The bounds leave a third of
// margin for map growth across Go releases and stay far below the node
// count.
func TestBuildAllocs(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "bench", "testdata", "obs_events_mllibstar.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(events)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		bound float64
		run   func()
	}{
		{"Build", 240, func() { _, _ = Build(events) }},
		{"Retime", 30, func() { _ = Retime(g, Scenario{Name: "identity"}) }},
	} {
		allocs := testing.AllocsPerRun(10, tc.run)
		t.Logf("%s over %d nodes: %v allocations", tc.name, len(g.Nodes), allocs)
		if allocs > tc.bound {
			t.Errorf("%s over %d nodes allocates %v times, bound %v: something allocates per node again", tc.name, len(g.Nodes), allocs, tc.bound)
		}
	}
}
