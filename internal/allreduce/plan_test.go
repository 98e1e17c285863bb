package allreduce_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/clusters"
	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/obs"
)

// FuzzPlanMatchesRun runs one collective into a sink and holds each
// executor's recorded sends to its plan's Send steps, in order: tag for tag,
// destination for destination, and byte for byte when dense — the schedule
// the simulator executes is the one internal/causal lowers.
func FuzzPlanMatchesRun(f *testing.F) {
	for _, s := range []struct {
		k, dim, chunks, op int
		sparse, overlap    bool
	}{
		{1, 5, 2, 0, false, false},
		{2, 0, 3, 0, false, false},
		{3, 2, 8, 1, true, false},
		{3, 7, 2, 2, false, false},
		{4, 40, 3, 3, false, true},
		{4, 40, 3, 3, true, true},
		{5, 101, 4, 3, false, false},
		{5, 101, 4, 1, true, false},
		{7, 300, 9, 3, true, true},
		{8, 64, 8, 0, true, false},
		{9, 250, 5, 3, false, true},
		{9, 9, 1, 2, true, false},
	} {
		f.Add(uint8(s.k), uint16(s.dim), uint8(s.chunks), uint8(s.op), s.sparse, s.overlap)
	}
	f.Fuzz(func(t *testing.T, kb uint8, dimb uint16, cb uint8, ob uint8, sp, ov bool) {
		tc := tcase{k: 1 + int(kb)%9, dim: int(dimb) % 301, chunks: 1 + int(cb)%9, sparse: sp, op: op(ob % 4)}
		tc.overlap = ov && tc.op == opProduced
		in, ref := tc.inputs()
		spec := clusters.Test(tc.k)
		sink := obs.NewSink()
		collective(t, spec, tc.switches(), tc.op, in, ref, sink)

		dst := map[int64]string{} // message id -> receiving node
		sent := map[string][]obs.Event{}
		for _, e := range sink.Events() {
			if _, ok := allreduce.ParseTag(e.Note); !ok {
				continue
			}
			switch e.Dir {
			case obs.DirRecv:
				dst[e.MID] = e.Node
			case obs.DirSend:
				sent[e.Node] = append(sent[e.Node], e)
			}
		}
		C := allreduce.EffectiveChunks(tc.chunks, tc.dim, tc.k)
		bw := make([]float64, tc.k)
		for j := range bw {
			bw[j] = spec.Bandwidth
		}
		for self := 0; self < tc.k; self++ {
			host := fmt.Sprintf("executor%d", self)
			var order []int
			if tc.overlap && C > 1 {
				order = allreduce.RouteOrder("t", self, tc.k, tc.dim, spec.Bandwidth, bw)
			}
			got, i := sent[host], 0
			for s := range allreduce.Plan(tc.k, tc.dim, tc.chunks, self, order, tc.overlap, !tc.sparse) {
				if s.Op != allreduce.Send {
					continue
				}
				if i == len(got) {
					t.Fatalf("%v: %s recorded %d sends, its plan has more", tc, host, i)
				}
				e := got[i]
				i++
				tag := fmt.Sprintf("xch:%v:t", s.Round)
				if C > 1 {
					tag = fmt.Sprintf("%s.c%d", tag, s.Chunk)
				}
				to := fmt.Sprintf("executor%d", s.Peer)
				if e.Note != tag || dst[e.MID] != to {
					t.Fatalf("%v: %s send %d is %s to %s, its plan %s to %s", tc, host, i-1, e.Note, dst[e.MID], tag, to)
				}
				if pt, _ := allreduce.ParseTag(e.Note); pt != (allreduce.Tag{Round: s.Round, Name: "t", Chunked: C > 1}) {
					t.Fatalf("%v: ParseTag(%q) = %+v", tc, e.Note, pt)
				}
				if want := engine.FloatBytes * float64(s.Hi-s.Lo); !tc.sparse && e.Bytes != want {
					t.Fatalf("%v: %s send %d (%s) carried %v bytes, its plan %v", tc, host, i-1, tag, e.Bytes, want)
				}
			}
			if i != len(got) {
				t.Fatalf("%v: %s recorded %d sends, its plan %d", tc, host, len(got), i)
			}
		}
	})
}

// TestSuperstepClosedForm holds one dense unchunked AverageDelta on random
// uniform clusters to the closed form the repository benchmark's self-check
// uses: with p = (8m/k + 64)/B the time one partition message occupies a
// NIC, a superstep takes
//
//	(3k−2)·p + 2·latency + 2(k−1)(m/k)/rate
//
// simulated seconds — every executor visits its peers in ascending order, so
// the senders hit one receiver at once and the first round's skew carries
// into the second — and moves exactly 2(k−1)·8m payload bytes.
func TestSuperstepClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	for n := 0; n < 200; n++ {
		k, part := 2+rng.Intn(15), 1+rng.Intn(3000)
		m := k * part
		spec := clusters.Spec{
			Name: "uniform", Executors: k,
			ComputeRate: logUniform(1e5, 1e9),
			Bandwidth:   logUniform(1e5, 1e8),
			Latency:     logUniform(1e-6, 1e-3),
			Engine:      engine.Config{TaskBytes: 512, ResultBytes: 128},
		}
		in := make([][]float64, k)
		for i := range in {
			in[i] = make([]float64, m)
		}
		_, simS, bytes := collective(t, spec, switches{chunks: 1}, opAverageDelta, in, make([]float64, m), nil)
		kf, p := float64(k), (8*float64(part)+64)/spec.Bandwidth
		form := (3*kf-2)*p + 2*spec.Latency + 2*(kf-1)*float64(part)/spec.ComputeRate
		if math.Abs(simS-form) > 1e-9*form {
			t.Errorf("k=%d m=%d B=%g latency=%g rate=%g: superstep took %v simulated s, closed form %v",
				k, m, spec.Bandwidth, spec.Latency, spec.ComputeRate, simS, form)
		}
		if want := 2 * (kf - 1) * engine.FloatBytes * float64(m); bytes != want {
			t.Errorf("k=%d m=%d: %v bytes, closed form 2(k−1)·8m = %v", k, m, bytes, want)
		}
	}
}

// TestTreeAggregateClosedForm holds one dense engine.TreeAggregateVec — the
// treeAggregate MLlib's trainers aggregate through, the alternative to the
// collective above — on random uniform clusters with k executors and a
// aggregators to its exact payload bytes:
//
//	k task descriptors of T + 8m (the broadcast model), k − a partials of 8m
//	forwarded to their group's aggregator, a results of R + 8m carrying a
//	group sum to the driver, and k − a empty results of R
//
// where T and R are the configured task and result bytes. With flat
// aggregation (a = k) no partial is forwarded, and the stage is a closed
// form. With s_t = (T + 8m + 64)/B and s_r = (R + 8m + 64)/B the NIC times
// of a task and a result message (64 is the per-message wire overhead):
// the driver's outbound NIC sends task j by (j+1)·s_t, executor j receives it
// by (j+2)·s_t + L, charges the task's work W at rate r and sends its result,
// which reaches the driver's inbound NIC at (j+2)·s_t + 2L + W/r + s_r. That
// NIC serves the k arrivals, spaced s_t apart, in order, in s_r each, so the
// last is delivered s_r + (k−1)·max(s_r, s_t) after the first arrives.
// The driver then folds the other k − 1 partials into the first, m work units
// each at rate r. The stage takes
//
//	2·s_t + 2L + W/r + 2·s_r + (k−1)·max(s_r, s_t) + (k−1)·m/r
//
// simulated seconds.
func TestTreeAggregateClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	flat := 0
	for n := 0; n < 200; n++ {
		k := 2 + rng.Intn(15)
		a := 1 + rng.Intn(k)
		m := 1 + rng.Intn(3000)
		spec := clusters.Spec{
			Name: "uniform", Executors: k,
			ComputeRate: logUniform(1e5, 1e9),
			Bandwidth:   logUniform(1e5, 1e8),
			Latency:     logUniform(1e-6, 1e-3),
			Engine:      engine.Config{TaskBytes: float64(rng.Intn(2048)), ResultBytes: float64(rng.Intn(2048))},
		}
		work := logUniform(1, 1e6)
		sim, cl, ctx := spec.Build(nil)
		var simS float64
		sim.Spawn("driver", func(p *des.Proc) {
			ctx.TreeAggregateVec(p, "agg", m, a, engine.FloatBytes*float64(m), func(task int) ([]float64, float64) {
				partial := make([]float64, m)
				for j := range partial {
					partial[j] = float64(task + j + 1)
				}
				return partial, work
			})
			simS = p.Now()
		})
		sim.Run()

		kf, af, mf := float64(k), float64(a), float64(m)
		T, R := spec.Engine.TaskBytes, spec.Engine.ResultBytes
		dense := engine.FloatBytes * mf
		if want := kf*(T+dense) + (kf-af)*dense + af*(R+dense) + (kf-af)*R; cl.Net.TotalBytes() != want {
			t.Errorf("k=%d a=%d m=%d T=%g R=%g: %v bytes, closed form %v", k, a, m, T, R, cl.Net.TotalBytes(), want)
		}
		if a != k {
			continue
		}
		flat++
		st, sr := (T+dense+64)/spec.Bandwidth, (R+dense+64)/spec.Bandwidth
		r, L := spec.ComputeRate, spec.Latency
		form := 2*st + 2*L + work/r + 2*sr + (kf-1)*math.Max(sr, st) + (kf-1)*mf/r
		if math.Abs(simS-form) > 1e-9*form {
			t.Errorf("k=%d m=%d B=%g latency=%g rate=%g T=%g R=%g work=%g: treeAggregate took %v simulated s, closed form %v",
				k, m, spec.Bandwidth, L, r, T, R, work, simS, form)
		}
	}
	if flat < 20 {
		t.Fatalf("only %d of 200 clusters drew flat aggregation", flat)
	}
}
