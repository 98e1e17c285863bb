package serve

import (
	"bytes"
	"math"
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/data"
	"mllibstar/internal/des"
	"mllibstar/internal/detrand"
	"mllibstar/internal/obs"
)

const testDim = 5000 // 20 ScoreBlock blocks: uneven splits at 4 and 16 shards

// testWeights returns a deterministic dense checkpoint.
func testWeights(seed int64, dim int) []float64 {
	rng := detrand.New(seed)
	w := make([]float64, dim)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	return w
}

func testLoad() LoadConfig {
	return LoadConfig{PerClient: 25, QPS: 2000, NNZ: 12, ZipfS: 1.2, ZipfV: 1, Seed: 42}
}

// runServe runs one deployment with the load generator and returns the
// results, flattened client-major.
func runServe(t *testing.T, shards, clientCount int, cfg Config, w []float64, lc LoadConfig) []Result {
	t.Helper()
	sim, net, names := clusters.Test(1).BuildServe(shards, clientCount, obs.Active())
	d, err := New(sim, net, Names{Router: names.Router, Shards: names.Shards}, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	l, err := d.SpawnLoad(sim, names.Clients, lc)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	return l.Results()
}

// TestShardCountInvariance: the exact same request stream scored by 1-, 4-,
// and 16-shard deployments yields bit-identical margins, all equal to the
// canonical single-machine fold.
func TestShardCountInvariance(t *testing.T) {
	w := testWeights(1, testDim)
	cfg := Config{Dim: testDim, BatchMax: 8, BatchBudget: 0.002}
	lc := testLoad()
	base := runServe(t, 1, 3, cfg, w, lc)
	if len(base) != 3*lc.PerClient {
		t.Fatalf("got %d results, want %d", len(base), 3*lc.PerClient)
	}
	for _, r := range base {
		want := ExpectedMargin([][]float64{w}, r)
		if math.Float64bits(r.Margin) != math.Float64bits(want) {
			t.Fatalf("client %d seq %d: margin %x != canonical %x",
				r.Client, r.Seq, math.Float64bits(r.Margin), math.Float64bits(want))
		}
	}
	for _, shards := range []int{4, 16} {
		got := runServe(t, shards, 3, cfg, w, lc)
		if len(got) != len(base) {
			t.Fatalf("%d shards: %d results, want %d", shards, len(got), len(base))
		}
		for i := range got {
			if got[i].Client != base[i].Client || got[i].Seq != base[i].Seq {
				t.Fatalf("%d shards: result %d is (%d,%d), want (%d,%d)",
					shards, i, got[i].Client, got[i].Seq, base[i].Client, base[i].Seq)
			}
			if math.Float64bits(got[i].Margin) != math.Float64bits(base[i].Margin) {
				t.Fatalf("%d shards: client %d seq %d margin %x != 1-shard %x",
					shards, got[i].Client, got[i].Seq,
					math.Float64bits(got[i].Margin), math.Float64bits(base[i].Margin))
			}
		}
	}
}

// TestHotSwapUnderLoad: a controller installs and activates a new checkpoint
// mid-traffic. Every request completes, every margin matches its epoch's
// checkpoint bit-for-bit (no torn reads), per-client epochs are monotone,
// both epochs actually served traffic, and exactly one swap was recorded.
func TestHotSwapUnderLoad(t *testing.T) {
	w0 := testWeights(1, testDim)
	w1 := testWeights(2, testDim)
	cfg := Config{Dim: testDim, BatchMax: 8, BatchBudget: 0.002}
	lc := testLoad()
	const clientCount = 4

	sink := obs.Enable()
	defer obs.Disable()
	sim, net, names := clusters.Test(1).BuildServe(4, clientCount, obs.Active())
	d, err := New(sim, net, Names{Router: names.Router, Shards: names.Shards}, cfg, w0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := d.SpawnLoad(sim, names.Clients, lc)
	if err != nil {
		t.Fatal(err)
	}
	sim.Spawn("serve:ctl", func(p *des.Proc) {
		p.WaitUntil(0.02) // mid-run: ~40% of the load has been served
		d.Install(p, w1)
		d.Swap(p)
	})
	sim.Run()
	if d.Epoch() != 1 {
		t.Fatalf("deployment epoch %d after swap, want 1", d.Epoch())
	}

	results := l.Results()
	if len(results) != clientCount*lc.PerClient {
		t.Fatalf("%d results, want %d (dropped requests)", len(results), clientCount*lc.PerClient)
	}
	epochs := [][]float64{w0, w1}
	counts := map[int64]int{}
	lastEpoch := map[int]int64{}
	for _, r := range results {
		if r.Epoch != 0 && r.Epoch != 1 {
			t.Fatalf("client %d seq %d scored on epoch %d", r.Client, r.Seq, r.Epoch)
		}
		counts[r.Epoch]++
		if r.Epoch < lastEpoch[r.Client] {
			t.Fatalf("client %d seq %d went back to epoch %d after %d",
				r.Client, r.Seq, r.Epoch, lastEpoch[r.Client])
		}
		lastEpoch[r.Client] = r.Epoch
		want := ExpectedMargin(epochs, r)
		if math.Float64bits(r.Margin) != math.Float64bits(want) {
			t.Fatalf("client %d seq %d epoch %d: margin %x != checkpoint's %x (torn read?)",
				r.Client, r.Seq, r.Epoch, math.Float64bits(r.Margin), math.Float64bits(want))
		}
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("swap not mid-traffic: %d epoch-0 and %d epoch-1 requests", counts[0], counts[1])
	}
	swaps := 0
	for _, e := range sink.Events() {
		if e.Phase == obs.PhaseServeSwap {
			swaps++
			if e.Count != 1 {
				t.Fatalf("swap event activated epoch %d, want 1", e.Count)
			}
		}
	}
	if swaps != 1 {
		t.Fatalf("%d swap events, want exactly 1", swaps)
	}
}

// TestBatchingFlushReasons: a synchronized burst larger than BatchMax
// produces a batch-full flush and a deadline flush, sized and recorded
// correctly; no batch ever exceeds BatchMax.
func TestBatchingFlushReasons(t *testing.T) {
	w := testWeights(1, testDim)
	sink := obs.Enable()
	defer obs.Disable()
	sim, net, names := clusters.Test(1).BuildServe(2, 6, obs.Active())
	d, err := New(sim, net, Names{Router: names.Router, Shards: names.Shards},
		Config{Dim: testDim, BatchMax: 4, BatchBudget: 0.005}, w)
	if err != nil {
		t.Fatal(err)
	}
	// Six clients fire one request each at t=0; client NIC serialization
	// staggers arrivals but all six land well inside the budget.
	for i, name := range names.Clients {
		i, name := i, name
		sim.Spawn("burst", func(p *des.Proc) {
			node := net.Node(name)
			tag := "serve.rep"
			ind := []int32{int32(i), int32(1000 + i)}
			val := []float64{1, 2}
			node.Send(p, d.names.Router, ReqTag, headerBytes+12*2,
				scoreReq{replyTo: name, replyTag: tag, seq: i, ind: ind, val: val})
			node.Recv(p, tag)
		})
	}
	sim.Run()
	reasons := map[string][]int64{}
	for _, e := range sink.Events() {
		if e.Phase == obs.PhaseServeBatch {
			reasons[e.Note] = append(reasons[e.Note], e.Count)
			if e.Count > 4 {
				t.Fatalf("batch of %d exceeds BatchMax 4", e.Count)
			}
		}
	}
	if len(reasons["full"]) != 1 || reasons["full"][0] != 4 {
		t.Fatalf("full flushes = %v, want one of size 4", reasons["full"])
	}
	if len(reasons["deadline"]) != 1 || reasons["deadline"][0] != 2 {
		t.Fatalf("deadline flushes = %v, want one of size 2", reasons["deadline"])
	}
}

// TestServeDeterminism: two identical runs produce byte-identical event logs
// and metrics expositions — the property the serve-demo golden snapshot and
// the CI smoke leg rely on.
func TestServeDeterminism(t *testing.T) {
	run := func() ([]byte, []byte) {
		sink := obs.Enable()
		defer obs.Disable()
		w0 := testWeights(1, testDim)
		w1 := testWeights(2, testDim)
		sim, net, names := clusters.Test(1).BuildServe(4, 3, obs.Active())
		d, err := New(sim, net, Names{Router: names.Router, Shards: names.Shards},
			Config{Dim: testDim, BatchMax: 8, BatchBudget: 0.002}, w0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.SpawnLoad(sim, names.Clients, testLoad()); err != nil {
			t.Fatal(err)
		}
		sim.Spawn("serve:ctl", func(p *des.Proc) {
			p.WaitUntil(0.02)
			d.Install(p, w1)
			d.Swap(p)
		})
		sim.Run()
		var events, metrics bytes.Buffer
		if err := sink.WriteJSONL(&events); err != nil {
			t.Fatal(err)
		}
		if err := sink.Registry().WriteText(&metrics); err != nil {
			t.Fatal(err)
		}
		return events.Bytes(), metrics.Bytes()
	}
	e1, m1 := run()
	e2, m2 := run()
	if !bytes.Equal(e1, e2) {
		t.Fatal("event logs differ between identical runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Fatal("metrics expositions differ between identical runs")
	}
}

// TestEmptyRangeShards: more shards than coordinate blocks leaves tail
// shards with empty ranges; the deployment must still score correctly.
func TestEmptyRangeShards(t *testing.T) {
	dim := 2 * data.ScoreBlock // 2 blocks, 5 shards: 3 shards own nothing
	w := testWeights(3, dim)
	lc := LoadConfig{PerClient: 10, QPS: 2000, NNZ: 5, ZipfS: 1.2, ZipfV: 1, Seed: 7}
	got := runServe(t, 5, 2, Config{Dim: dim, BatchMax: 4, BatchBudget: 0.001}, w, lc)
	if len(got) != 2*lc.PerClient {
		t.Fatalf("%d results, want %d", len(got), 2*lc.PerClient)
	}
	for _, r := range got {
		want := ExpectedMargin([][]float64{w}, r)
		if math.Float64bits(r.Margin) != math.Float64bits(want) {
			t.Fatalf("client %d seq %d: margin %x != canonical %x",
				r.Client, r.Seq, math.Float64bits(r.Margin), math.Float64bits(want))
		}
	}
}
