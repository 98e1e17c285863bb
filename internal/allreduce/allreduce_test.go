package allreduce_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/clusters"
	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/obs"
	"mllibstar/internal/sparse"
	"mllibstar/internal/vec"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// op is the entry point a case calls.
type op int

const (
	opAverage      op = iota // Average
	opAverageDelta           // AverageDelta against a shared non-nil reference
	opSum                    // Sum
	opProduced               // AverageProduced, the vector filled by a producer
)

func (o op) String() string {
	return [...]string{"average", "delta", "sum", "produced"}[o]
}

// switches are the process-wide settings a run is made under.
type switches struct {
	chunks  int
	sparse  bool
	overlap bool
}

// collective runs one stage on spec's cluster in which every executor calls
// o on a copy of its row of in — AverageProduced fills a zeroed vector from
// it — under sw, recording into sink (nil records nothing). It returns the
// executors' results and the simulated seconds and payload bytes of the
// collective alone, read at two barriers around it.
func collective(t testing.TB, spec clusters.Spec, sw switches, o op, in [][]float64, ref []float64, sink *obs.Sink) (out [][]float64, simS, bytes float64) {
	t.Helper()
	allreduce.Configure(sw.chunks)
	sparse.Configure(sw.sparse)
	allreduce.ConfigureOverlap(sw.overlap)
	defer func() {
		allreduce.Configure(1)
		sparse.Configure(false)
		allreduce.ConfigureOverlap(false)
	}()
	k := spec.Executors
	sim, cl, ctx := spec.Build(sink)
	enter := des.NewBarrier(sim, "enter", k)
	leave := des.NewBarrier(sim, "leave", k)
	out = make([][]float64, k)
	var t0, t1, b0, b1 float64
	sim.Spawn("driver", func(p *des.Proc) {
		tasks := make([]engine.Task, k)
		for i := range tasks {
			out[i] = append([]float64(nil), in[i]...)
			tasks[i] = engine.Task{Exec: cl.Execs[i], Run: func(p *des.Proc, ex *engine.Executor) (any, float64) {
				enter.Arrive(p)
				t0, b0 = p.Now(), cl.Net.TotalBytes()
				switch o {
				case opAverage:
					allreduce.Average(p, ex, cl.Execs, i, "t", out[i])
				case opAverageDelta:
					allreduce.AverageDelta(p, ex, cl.Execs, i, "t", out[i], ref)
				case opSum:
					allreduce.Sum(p, ex, cl.Execs, i, "t", out[i])
				case opProduced:
					clear(out[i])
					prod := &vecProducer{src: in[i], dst: out[i], total: float64(2 * len(in[i]))}
					allreduce.AverageProduced(p, ex, cl.Execs, i, "t", out[i], prod)
				}
				leave.Arrive(p)
				t1, b1 = p.Now(), cl.Net.TotalBytes()
				return nil, 0
			}}
		}
		ctx.RunStage(p, "collective", tasks)
	})
	sim.Run()
	return out, t1 - t0, b1 - b0
}

// vecProducer is a trivial Producer over a fixed source vector, standing in
// for the gradient stream.
type vecProducer struct {
	src, dst []float64
	total    float64
	prepared bool
}

func (v *vecProducer) Prepare()             { v.prepared = true }
func (v *vecProducer) PrepareWork() float64 { return v.total / 2 }
func (v *vecProducer) Produce(lo, hi int) {
	if !v.prepared {
		panic("Produce before Prepare")
	}
	copy(v.dst[lo:hi], v.src[lo:hi])
}
func (v *vecProducer) Work(lo, hi int) float64 {
	if len(v.dst) == 0 {
		return 0
	}
	return v.total / 2 * float64(hi-lo) / float64(len(v.dst))
}

// centralized is what every executor must hold afterwards: per partition,
// the owner's copy plus every other executor's in ascending order, then the
// averaging scale — the fold order that makes the collective deterministic.
func centralized(in [][]float64, average bool) []float64 {
	k, dim := len(in), len(in[0])
	want := make([]float64, dim)
	for o := 0; o < k; o++ {
		lo, hi := vec.PartitionRange(dim, k, o)
		acc := want[lo:hi]
		copy(acc, in[o][lo:hi])
		for j := 0; j < k; j++ {
			if j != o {
				vec.AddScaled(acc, in[j][lo:hi], 1)
			}
		}
		if average {
			vec.Scale(acc, 1/float64(k))
		}
	}
	return want
}

// tcase is one row of the table.
type tcase struct {
	k, dim, chunks int
	sparse         bool
	op             op
	overlap        bool // opProduced only
}

func (tc tcase) String() string {
	s := fmt.Sprintf("k%d/dim%d/C%d/%v", tc.k, tc.dim, tc.chunks, tc.op)
	if tc.sparse {
		s += "/sparse"
	}
	if tc.overlap {
		s += "/overlap"
	}
	return s
}

// key names the row's C = 1 counterpart in seqSimS.
func (tc tcase) key() string {
	tc.chunks = 1
	return tc.String()
}

func (tc tcase) switches() switches {
	return switches{chunks: tc.chunks, sparse: tc.sparse, overlap: tc.overlap}
}

// inputs returns the row's local vectors — 70 % of each equal to the
// reference (zero without one), so the sparse form wins on the
// Reduce-Scatter legs — and its reference, non-nil for opAverageDelta only.
func (tc tcase) inputs() (in [][]float64, ref []float64) {
	rng := rand.New(rand.NewSource(int64(1000*tc.k + tc.dim)))
	if tc.op == opAverageDelta {
		ref = make([]float64, tc.dim)
		for j := range ref {
			ref[j] = rng.NormFloat64()
		}
	}
	in = make([][]float64, tc.k)
	for i := range in {
		in[i] = make([]float64, tc.dim)
		for j := range in[i] {
			switch {
			case rng.Float64() < 0.3:
				in[i][j] = rng.NormFloat64()
			case ref != nil:
				in[i][j] = ref[j]
			}
		}
	}
	return in, ref
}

// table crosses every axis: k, dim (empty, one coordinate, fewer than k,
// fewer per partition than the largest C, odd and large), C, sparse coding,
// and the entry point — the producing one with overlap on and off.
func table() []tcase {
	var rows []tcase
	for _, k := range []int{1, 2, 3, 8} {
		seen := map[int]bool{}
		for _, dim := range []int{0, 1, k - 1, 2*k + 1, 4001} {
			if seen[dim] {
				continue
			}
			seen[dim] = true
			for _, chunks := range []int{1, 2, 8} {
				for _, sp := range []bool{false, true} {
					for _, o := range []op{opAverage, opAverageDelta, opSum, opProduced} {
						rows = append(rows, tcase{k: k, dim: dim, chunks: chunks, sparse: sp, op: o})
						if o == opProduced {
							rows = append(rows, tcase{k: k, dim: dim, chunks: chunks, sparse: sp, op: o, overlap: true})
						}
					}
				}
			}
		}
	}
	return rows
}

// check runs the row and asserts the table's four properties: results
// Float64bits-equal to the centralized mean or sum and to the C = 1 run;
// bytes independent of C; dense bytes exactly 2(k−1)·8·dim over the
// executors; and at C = 1 the simulated seconds pinned in seqSimS.
func check(t *testing.T, tc tcase) (simS float64) {
	t.Helper()
	in, ref := tc.inputs()
	spec := clusters.Test(tc.k)
	got, simS, bytes := collective(t, spec, tc.switches(), tc.op, in, ref, nil)
	want := centralized(in, tc.op != opSum)
	for i := range got {
		for j := range want {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[j]) {
				t.Fatalf("executor %d coord %d is %x, centralized %x", i, j, math.Float64bits(got[i][j]), math.Float64bits(want[j]))
			}
		}
	}
	if tc.chunks == 1 {
		pinned, ok := seqSimS[tc.key()]
		if !ok {
			t.Errorf("no pinned sim_s for %s; measured %v", tc.key(), simS)
		} else if math.Float64bits(simS) != math.Float64bits(pinned) {
			t.Errorf("sim_s %v, the unchunked schedule takes %v", simS, pinned)
		}
	} else {
		base := tc
		base.chunks = 1
		unchunked, _, baseBytes := collective(t, spec, base.switches(), tc.op, in, ref, nil)
		if bytes != baseBytes {
			t.Errorf("bytes %v, %v at C = 1", bytes, baseBytes)
		}
		for i := range got {
			for j := range got[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(unchunked[i][j]) {
					t.Fatalf("executor %d coord %d differs from C = 1", i, j)
				}
			}
		}
	}
	if dense := 2 * float64(tc.k-1) * engine.FloatBytes * float64(tc.dim); !tc.sparse && bytes != dense {
		t.Errorf("dense collective moved %v bytes, closed form 2(k−1)·8·dim = %v", bytes, dense)
	}
	return simS
}

// runTable runs the rows keep selects as subtests. Every test below is a
// view of the one table.
func runTable(t *testing.T, keep func(tcase) bool) {
	n := 0
	for _, tc := range table() {
		if keep(tc) {
			n++
			t.Run(tc.String(), func(t *testing.T) { check(t, tc) })
		}
	}
	if n == 0 {
		t.Fatal("no table row selected")
	}
}

// TestScheduleEventLogGolden pins every table row's whole schedule, not
// just its end time: the FNV-64 of the row's causal JSONL event log — every
// send, recv, fold, install, pipeline and feat-block span with its tag,
// bytes and timestamps — for every k, dim and C, sparse and dense, overlap
// on and off. testdata/eventlog_fnv64.golden; -update rewrites it.
func TestScheduleEventLogGolden(t *testing.T) {
	var got strings.Builder
	for _, tc := range table() {
		in, ref := tc.inputs()
		sink := obs.CausalSink()
		collective(t, clusters.Test(tc.k), tc.switches(), tc.op, in, ref, sink)
		h := fnv.New64a()
		if err := sink.WriteJSONL(h); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %016x\n", tc, h.Sum64())
	}
	path := filepath.Join("testdata", "eventlog_fnv64.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal([]byte(got.String()), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Errorf("event log drifted: got %q, want %q", gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%d rows, golden has %d", len(gl), len(wl))
		}
	}
}

func TestAverageMatchesCentralizedMean(t *testing.T) {
	runTable(t, func(tc tcase) bool { return tc.op == opAverage && tc.chunks == 1 })
}

func TestSumMatchesCentralizedSum(t *testing.T) {
	runTable(t, func(tc tcase) bool { return tc.op == opSum })
}

func TestSingleExecutorIsIdentityAverage(t *testing.T) {
	runTable(t, func(tc tcase) bool { return tc.k == 1 && tc.op != opProduced })
}

func TestDimSmallerThanExecutors(t *testing.T) {
	runTable(t, func(tc tcase) bool { return tc.dim < tc.k && tc.op != opProduced })
}

func TestPipelineBitIdenticalAndByteInvariant(t *testing.T) {
	runTable(t, func(tc tcase) bool { return tc.chunks > 1 && (tc.op == opAverage || tc.op == opAverageDelta) })
}

// TestPipelineTinyModelFallsBack: rows whose partitions hold fewer
// coordinates than the configured chunks (the clamp).
func TestPipelineTinyModelFallsBack(t *testing.T) {
	runTable(t, func(tc tcase) bool { return tc.k > 1 && tc.dim >= tc.k && tc.dim/tc.k < tc.chunks })
}

func TestAverageProducedBitIdentical(t *testing.T) {
	runTable(t, func(tc tcase) bool { return tc.op == opProduced && tc.k > 1 })
}

func TestAverageProducedSingleExecutor(t *testing.T) {
	runTable(t, func(tc tcase) bool { return tc.op == opProduced && tc.k == 1 })
}

// TestAllReduceTrafficInvariant: the dense rows, where the bytes must equal
// the closed form — the paper's claim that AllReduce moves the centralized
// pattern's 2·k·m, up to the owners not sending to themselves.
func TestAllReduceTrafficInvariant(t *testing.T) {
	runTable(t, func(tc tcase) bool { return !tc.sparse && tc.op == opAverage })
}

// TestAllReduceLatencyFlat asserts the core latency claim on the table's
// largest rows: AllReduce time grows only mildly with k (each node still
// moves ~2m bytes), where centralized aggregation grows linearly in k.
func TestAllReduceLatencyFlat(t *testing.T) {
	row := tcase{dim: 4001, chunks: 1, op: opAverage}
	simS := map[int]float64{}
	for _, k := range []int{2, 8} {
		row.k = k
		t.Run(row.String(), func(t *testing.T) { simS[k] = check(t, row) })
	}
	if simS[8] > 3*simS[2] {
		t.Errorf("AllReduce time grew from %g (k=2) to %g (k=8); expected sub-linear growth", simS[2], simS[8])
	}
}

func TestSelfOutOfRangePanics(t *testing.T) {
	sim, cl, ctx := clusters.Test(2).Build(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	sim.Spawn("driver", func(p *des.Proc) {
		ctx.RunStage(p, "bad", []engine.Task{{
			Exec: cl.Execs[0],
			Run: func(p *des.Proc, ex *engine.Executor) (any, float64) {
				allreduce.Average(p, ex, cl.Execs, 5, "t", make([]float64, 4))
				return nil, 0
			},
		}})
	})
	sim.Run()
}

func BenchmarkAllReduce8x10k(b *testing.B) {
	in := make([][]float64, 8)
	for i := range in {
		in[i] = make([]float64, 10000)
	}
	for n := 0; n < b.N; n++ {
		collective(b, clusters.Test(8), switches{chunks: 1}, opAverage, in, nil, nil)
	}
}

// TestPipelineSuperstepBound checks the cost-model claim on a cluster where
// communication and the fold/decode compute are deliberately balanced: the
// pipelined collective must finish within max(compute, comm) plus the
// pipeline fill (a few chunk serializations and latencies), where the
// unchunked schedule needs their sum.
func TestPipelineSuperstepBound(t *testing.T) {
	const k, dim, chunks = 4, 40000, 8
	spec := clusters.CommBound(k)
	s := dim / k // partition size; dim divides k evenly here
	in, _ := tcase{k: k, dim: dim}.inputs()
	_, seqDur, _ := collective(t, spec, switches{chunks: 1}, opAverage, in, nil, nil)
	_, pipeDur, _ := collective(t, spec, switches{chunks: chunks}, opAverage, in, nil, nil)

	// Modeled components, per executor: the fold charges (k−1)·s and the
	// gather decode another (k−1)·s; each direction of the NIC serializes
	// 2·(k−1) partition copies of 8·s bytes plus per-message framing.
	const overhead = 64 // simnet framing bytes per message
	compute := 2 * float64(k-1) * float64(s) / spec.ComputeRate
	comm := (2*float64(k-1)*float64(s)*engine.FloatBytes + 2*float64(k-1)*chunks*overhead) / spec.Bandwidth
	chunkWire := (float64(s)/chunks*engine.FloatBytes + overhead) / spec.Bandwidth
	fill := 4*float64(k-1)*chunkWire + 6*spec.Latency

	if bound := math.Max(compute, comm) + fill; pipeDur > bound {
		t.Errorf("pipelined superstep took %.6fs, want ≤ max(compute %.6fs, comm %.6fs) + fill %.6fs = %.6fs",
			pipeDur, compute, comm, fill, bound)
	}
	// The unchunked schedule pays compute + comm; requiring the pipelined
	// run to beat 80% of it proves real overlap, not noise.
	if pipeDur > 0.8*seqDur {
		t.Errorf("pipelined %.6fs vs unchunked %.6fs: expected ≥20%% overlap win", pipeDur, seqDur)
	}
}

// TestValidateChunksBoundary pins the flag-level validation: C < 1 and
// C beyond the smallest partition are rejected with an error, the exact
// boundary (C == dim/k) is accepted, and with the model size unknown only
// the C ≥ 1 half is checkable.
func TestValidateChunksBoundary(t *testing.T) {
	const dim, k = 4000, 4 // smallest partition: 1000 coordinates
	for _, tc := range []struct {
		chunks int
		ok     bool
	}{
		{-3, false}, {0, false}, {1, true}, {2, true},
		{999, true}, {1000, true}, {1001, false}, {4000, false},
	} {
		err := allreduce.ValidateChunks(tc.chunks, dim, k)
		if tc.ok && err != nil {
			t.Errorf("ValidateChunks(%d, %d, %d) = %v, want nil", tc.chunks, dim, k, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("ValidateChunks(%d, %d, %d) = nil, want error", tc.chunks, dim, k)
		}
	}
	// Entry points without a model size (prof.Start) pass dim = k = 0: only
	// the C ≥ 1 half applies there.
	if err := allreduce.ValidateChunks(64, 0, 0); err != nil {
		t.Errorf("ValidateChunks(64, 0, 0) = %v, want nil", err)
	}
	if err := allreduce.ValidateChunks(0, 0, 0); err == nil {
		t.Error("ValidateChunks(0, 0, 0) = nil, want error")
	}
}

// TestRouteOrderDeterministicAndComplete pins the routing schedule: every
// peer exactly once, self excluded, slowest links first, and the whole order
// — including the detrand tie-break among equal links — a pure function of
// (name, self).
func TestRouteOrderDeterministicAndComplete(t *testing.T) {
	const k, dim, self = 5, 50000, 2
	recvBW := []float64{8e8, 1e8, 8e8, 4e8, 8e8}
	got := allreduce.RouteOrder("lbg3", self, k, dim, 8e8, recvBW)
	if len(got) != k-1 {
		t.Fatalf("RouteOrder returned %d peers, want %d", len(got), k-1)
	}
	seen := map[int]bool{}
	for _, j := range got {
		if j == self || j < 0 || j >= k || seen[j] {
			t.Fatalf("RouteOrder = %v: bad peer %d", got, j)
		}
		seen[j] = true
	}
	// Bottleneck costs: peer 1 drains at 1e8 B/s, peer 3 at 4e8, the rest at
	// the full 8e8 — slowest first.
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("RouteOrder = %v, want slowest links (1, 3) first", got)
	}
	again := allreduce.RouteOrder("lbg3", self, k, dim, 8e8, recvBW)
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("RouteOrder not deterministic: %v vs %v", got, again)
		}
	}
	// Uniform bandwidth: order is the deterministic permutation, still a
	// complete visit of the peers.
	uniform := allreduce.RouteOrder("svrg-mu1", 0, 4, dim, 8e8, []float64{8e8, 8e8, 8e8, 8e8})
	if len(uniform) != 3 {
		t.Fatalf("uniform RouteOrder = %v", uniform)
	}
}

// seqSimS pins the simulated seconds of every C = 1 row: C = 1 must keep
// the plain two-round schedule's event sequence exactly, which the recorded
// event logs and the critical-path and what-if reports built on them pin.
var seqSimS = map[string]float64{
	"k1/dim0/C1/average":                    0,
	"k1/dim0/C1/delta":                      0,
	"k1/dim0/C1/sum":                        0,
	"k1/dim0/C1/produced":                   0,
	"k1/dim0/C1/produced/overlap":           0,
	"k1/dim0/C1/average/sparse":             0,
	"k1/dim0/C1/delta/sparse":               0,
	"k1/dim0/C1/sum/sparse":                 0,
	"k1/dim0/C1/produced/sparse":            0,
	"k1/dim0/C1/produced/sparse/overlap":    0,
	"k1/dim1/C1/average":                    0,
	"k1/dim1/C1/delta":                      0,
	"k1/dim1/C1/sum":                        0,
	"k1/dim1/C1/produced":                   2.0000000000000486e-07,
	"k1/dim1/C1/produced/overlap":           2.0000000000000486e-07,
	"k1/dim1/C1/average/sparse":             0,
	"k1/dim1/C1/delta/sparse":               0,
	"k1/dim1/C1/sum/sparse":                 0,
	"k1/dim1/C1/produced/sparse":            2.0000000000000486e-07,
	"k1/dim1/C1/produced/sparse/overlap":    2.0000000000000486e-07,
	"k1/dim3/C1/average":                    0,
	"k1/dim3/C1/delta":                      0,
	"k1/dim3/C1/sum":                        0,
	"k1/dim3/C1/produced":                   5.999999999999875e-07,
	"k1/dim3/C1/produced/overlap":           5.999999999999875e-07,
	"k1/dim3/C1/average/sparse":             0,
	"k1/dim3/C1/delta/sparse":               0,
	"k1/dim3/C1/sum/sparse":                 0,
	"k1/dim3/C1/produced/sparse":            5.999999999999875e-07,
	"k1/dim3/C1/produced/sparse/overlap":    5.999999999999875e-07,
	"k1/dim4001/C1/average":                 0,
	"k1/dim4001/C1/delta":                   0,
	"k1/dim4001/C1/sum":                     0,
	"k1/dim4001/C1/produced":                0.0008002,
	"k1/dim4001/C1/produced/overlap":        0.0008002,
	"k1/dim4001/C1/average/sparse":          0,
	"k1/dim4001/C1/delta/sparse":            0,
	"k1/dim4001/C1/sum/sparse":              0,
	"k1/dim4001/C1/produced/sparse":         0.0008002,
	"k1/dim4001/C1/produced/sparse/overlap": 0.0008002,
	"k2/dim0/C1/average":                    0.00022560000000000006,
	"k2/dim0/C1/delta":                      0.00022560000000000006,
	"k2/dim0/C1/sum":                        0.00022560000000000006,
	"k2/dim0/C1/produced":                   0.00022560000000000006,
	"k2/dim0/C1/produced/overlap":           0.00022560000000000006,
	"k2/dim0/C1/average/sparse":             0.00022560000000000006,
	"k2/dim0/C1/delta/sparse":               0.00022560000000000006,
	"k2/dim0/C1/sum/sparse":                 0.00022560000000000006,
	"k2/dim0/C1/produced/sparse":            0.00022560000000000006,
	"k2/dim0/C1/produced/sparse/overlap":    0.00022560000000000006,
	"k2/dim1/C1/average":                    0.00022899999999999993,
	"k2/dim1/C1/delta":                      0.00022899999999999993,
	"k2/dim1/C1/sum":                        0.00022899999999999993,
	"k2/dim1/C1/produced":                   0.00022919999999999993,
	"k2/dim1/C1/produced/overlap":           0.00022919999999999993,
	"k2/dim1/C1/average/sparse":             0.00022579999999999996,
	"k2/dim1/C1/delta/sparse":               0.00022579999999999996,
	"k2/dim1/C1/sum/sparse":                 0.00022579999999999996,
	"k2/dim1/C1/produced/sparse":            0.00022599999999999996,
	"k2/dim1/C1/produced/sparse/overlap":    0.00022599999999999996,
	"k2/dim5/C1/average":                    0.00023579999999999999,
	"k2/dim5/C1/delta":                      0.00023579999999999999,
	"k2/dim5/C1/sum":                        0.00023579999999999999,
	"k2/dim5/C1/produced":                   0.0002368,
	"k2/dim5/C1/produced/overlap":           0.0002368,
	"k2/dim5/C1/average/sparse":             0.00023099999999999998,
	"k2/dim5/C1/delta/sparse":               0.00022619999999999997,
	"k2/dim5/C1/sum/sparse":                 0.00023099999999999998,
	"k2/dim5/C1/produced/sparse":            0.000232,
	"k2/dim5/C1/produced/sparse/overlap":    0.000232,
	"k2/dim4001/C1/average":                 0.0070290000000000005,
	"k2/dim4001/C1/delta":                   0.0070290000000000005,
	"k2/dim4001/C1/sum":                     0.0070290000000000005,
	"k2/dim4001/C1/produced":                0.0078292,
	"k2/dim4001/C1/produced/overlap":        0.0078292,
	"k2/dim4001/C1/average/sparse":          0.0045784,
	"k2/dim4001/C1/delta/sparse":            0.0046122,
	"k2/dim4001/C1/sum/sparse":              0.0045784,
	"k2/dim4001/C1/produced/sparse":         0.0053786,
	"k2/dim4001/C1/produced/sparse/overlap": 0.0053786,
	"k3/dim0/C1/average":                    0.0002448000000000001,
	"k3/dim0/C1/delta":                      0.0002448000000000001,
	"k3/dim0/C1/sum":                        0.0002448000000000001,
	"k3/dim0/C1/produced":                   0.0002448000000000001,
	"k3/dim0/C1/produced/overlap":           0.0002448000000000001,
	"k3/dim0/C1/average/sparse":             0.0002448000000000001,
	"k3/dim0/C1/delta/sparse":               0.0002448000000000001,
	"k3/dim0/C1/sum/sparse":                 0.0002448000000000001,
	"k3/dim0/C1/produced/sparse":            0.0002448000000000001,
	"k3/dim0/C1/produced/sparse/overlap":    0.0002448000000000001,
	"k3/dim1/C1/average":                    0.0002465,
	"k3/dim1/C1/delta":                      0.0002465,
	"k3/dim1/C1/sum":                        0.0002465,
	"k3/dim1/C1/produced":                   0.0002467,
	"k3/dim1/C1/produced/overlap":           0.0002467,
	"k3/dim1/C1/average/sparse":             0.00024490000000000004,
	"k3/dim1/C1/delta/sparse":               0.00024569999999999995,
	"k3/dim1/C1/sum/sparse":                 0.00024490000000000004,
	"k3/dim1/C1/produced/sparse":            0.00024510000000000005,
	"k3/dim1/C1/produced/sparse/overlap":    0.00024510000000000005,
	"k3/dim2/C1/average":                    0.0002507999999999999,
	"k3/dim2/C1/delta":                      0.0002507999999999999,
	"k3/dim2/C1/sum":                        0.0002507999999999999,
	"k3/dim2/C1/produced":                   0.0002511999999999999,
	"k3/dim2/C1/produced/overlap":           0.0002511999999999999,
	"k3/dim2/C1/average/sparse":             0.00024839999999999986,
	"k3/dim2/C1/delta/sparse":               0.0002491999999999999,
	"k3/dim2/C1/sum/sparse":                 0.00024839999999999986,
	"k3/dim2/C1/produced/sparse":            0.00024879999999999987,
	"k3/dim2/C1/produced/sparse/overlap":    0.00024879999999999987,
	"k3/dim7/C1/average":                    0.00025849999999999983,
	"k3/dim7/C1/delta":                      0.00025849999999999983,
	"k3/dim7/C1/sum":                        0.00025849999999999983,
	"k3/dim7/C1/produced":                   0.00025989999999999987,
	"k3/dim7/C1/produced/overlap":           0.00025989999999999987,
	"k3/dim7/C1/average/sparse":             0.00025410000000000005,
	"k3/dim7/C1/delta/sparse":               0.0002559,
	"k3/dim7/C1/sum/sparse":                 0.00025410000000000005,
	"k3/dim7/C1/produced/sparse":            0.0002555,
	"k3/dim7/C1/produced/sparse/overlap":    0.0002555,
	"k3/dim4001/C1/average":                 0.008248800000000002,
	"k3/dim4001/C1/delta":                   0.008248800000000002,
	"k3/dim4001/C1/sum":                     0.008248800000000002,
	"k3/dim4001/C1/produced":                0.009049,
	"k3/dim4001/C1/produced/overlap":        0.009049,
	"k3/dim4001/C1/average/sparse":          0.0063872,
	"k3/dim4001/C1/delta/sparse":            0.0064416,
	"k3/dim4001/C1/sum/sparse":              0.0063872,
	"k3/dim4001/C1/produced/sparse":         0.0071874,
	"k3/dim4001/C1/produced/sparse/overlap": 0.0071874,
	"k8/dim0/C1/average":                    0.00034080000000000113,
	"k8/dim0/C1/delta":                      0.00034080000000000113,
	"k8/dim0/C1/sum":                        0.00034080000000000113,
	"k8/dim0/C1/produced":                   0.00034080000000000113,
	"k8/dim0/C1/produced/overlap":           0.00034080000000000113,
	"k8/dim0/C1/average/sparse":             0.00034080000000000113,
	"k8/dim0/C1/delta/sparse":               0.00034080000000000113,
	"k8/dim0/C1/sum/sparse":                 0.00034080000000000113,
	"k8/dim0/C1/produced/sparse":            0.00034080000000000113,
	"k8/dim0/C1/produced/sparse/overlap":    0.00034080000000000113,
	"k8/dim1/C1/average":                    0.0003425000000000009,
	"k8/dim1/C1/delta":                      0.0003425000000000009,
	"k8/dim1/C1/sum":                        0.0003425000000000009,
	"k8/dim1/C1/produced":                   0.0003427000000000009,
	"k8/dim1/C1/produced/overlap":           0.0003427000000000009,
	"k8/dim1/C1/average/sparse":             0.000341700000000001,
	"k8/dim1/C1/delta/sparse":               0.000341700000000001,
	"k8/dim1/C1/sum/sparse":                 0.000341700000000001,
	"k8/dim1/C1/produced/sparse":            0.000341900000000001,
	"k8/dim1/C1/produced/sparse/overlap":    0.000341900000000001,
	"k8/dim7/C1/average":                    0.0003597999999999992,
	"k8/dim7/C1/delta":                      0.0003597999999999992,
	"k8/dim7/C1/sum":                        0.0003597999999999992,
	"k8/dim7/C1/produced":                   0.00036119999999999935,
	"k8/dim7/C1/produced/overlap":           0.00036119999999999935,
	"k8/dim7/C1/average/sparse":             0.00035419999999999907,
	"k8/dim7/C1/delta/sparse":               0.0003557999999999989,
	"k8/dim7/C1/sum/sparse":                 0.00035419999999999907,
	"k8/dim7/C1/produced/sparse":            0.0003555999999999991,
	"k8/dim7/C1/produced/sparse/overlap":    0.0003555999999999991,
	"k8/dim17/C1/average":                   0.000380499999999999,
	"k8/dim17/C1/delta":                     0.000380499999999999,
	"k8/dim17/C1/sum":                       0.000380499999999999,
	"k8/dim17/C1/produced":                  0.000383899999999999,
	"k8/dim17/C1/produced/overlap":          0.000383899999999999,
	"k8/dim17/C1/average/sparse":            0.0003712999999999992,
	"k8/dim17/C1/delta/sparse":              0.0003704999999999994,
	"k8/dim17/C1/sum/sparse":                0.0003712999999999992,
	"k8/dim17/C1/produced/sparse":           0.0003746999999999992,
	"k8/dim17/C1/produced/sparse/overlap":   0.0003746999999999992,
	"k8/dim4001/C1/average":                 0.009842499999999997,
	"k8/dim4001/C1/delta":                   0.009842499999999997,
	"k8/dim4001/C1/sum":                     0.009842499999999997,
	"k8/dim4001/C1/produced":                0.010642699999999995,
	"k8/dim4001/C1/produced/overlap":        0.010642699999999995,
	"k8/dim4001/C1/average/sparse":          0.0080664,
	"k8/dim4001/C1/delta/sparse":            0.008046900000000003,
	"k8/dim4001/C1/sum/sparse":              0.0080664,
	"k8/dim4001/C1/produced/sparse":         0.008866599999999997,
	"k8/dim4001/C1/produced/sparse/overlap": 0.008866599999999997,
}
