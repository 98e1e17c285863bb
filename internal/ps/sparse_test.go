package ps_test

import (
	"math"
	"testing"

	"mllibstar/internal/clusters"
	"mllibstar/internal/des"
	"mllibstar/internal/obs"
	"mllibstar/internal/ps"
)

// pushRun runs two workers for three SSP clocks (staleness 0): each pulls at
// clock c−1 and pushes delta(worker, c). With touched nil every push is
// Push's dense one; otherwise it is PushTouched over touched, and delta is
// NaN off the touched set, so a sparse push that read or sent an untouched
// coordinate would poison the model. It returns the model pulled after the
// last clock, the simulated end time and the recorded spans — every send
// and every server apply, with its virtual start and end.
func pushRun(t *testing.T, dim, servers int, touched []int32, delta func(worker, clock, j int) float64) ([]float64, float64, string) {
	t.Helper()
	const workers, clocks = 2, 3
	sink := obs.CausalSink() // causal: each send's span carries its tag
	sim, net, names := clusters.Test(max(workers, servers)).BuildNet(sink)
	deploy, err := ps.New(sim, net, names, ps.Config{
		Dim: dim, Servers: servers, Workers: workers, CombineScale: 1 / float64(workers)})
	if err != nil {
		t.Fatal(err)
	}
	var final []float64
	for r := 0; r < workers; r++ {
		r := r
		sim.Spawn("worker", func(p *des.Proc) {
			w, d := make([]float64, dim), make([]float64, dim)
			for c := 1; c <= clocks; c++ {
				deploy.PullInto(p, names[r], r, c-1, w)
				if touched == nil {
					for j := range d {
						d[j] = delta(r, c, j)
					}
					deploy.Push(p, names[r], r, c, d)
					continue
				}
				scribble(d)
				for _, j := range touched {
					d[j] = delta(r, c, int(j))
				}
				deploy.PushTouched(p, names[r], r, c, d, touched)
			}
			if r == 0 {
				final = deploy.Pull(p, names[r], r, clocks)
			}
		})
	}
	end := sim.Run()
	return final, end, obs.GanttFromEvents(sink.Events()).CSV()
}

// TestPushTouchedEqualsDense: a sparse push is the dense push of the same
// delta with +0 off the touched set — the same model bits, the same
// simulated time and the same spans, because every server still gets a message (an empty
// chunk carries the clock advance and the dense charge) and an untouched
// coordinate's +0 add is exact. The cases cover a touched set that misses a
// server's range entirely, indices on range boundaries, −0 at a touched
// coordinate, no touched coordinate at all, and a model shorter than the
// server count.
func TestPushTouchedEqualsDense(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ramp := func(worker, clock, j int) float64 { return float64(1+worker) * float64(clock) / float64(1+j) }
	for _, tc := range []struct {
		name         string
		dim, servers int
		touched      []int32
		delta        func(worker, clock, j int) float64
	}{
		// Ranges [0,4) [4,8) [8,11): server 1 gets only empty chunks.
		{"server range missed", 11, 3, []int32{9, 0, 3, 10}, ramp},
		{"range boundaries", 11, 3, []int32{0, 3, 4, 7, 8, 10}, ramp},
		{"every coordinate", 12, 4, []int32{11, 5, 0, 6, 1, 7, 2, 8, 3, 9, 4, 10}, ramp},
		{"negative zero touched", 11, 3, []int32{2, 5, 8}, func(worker, clock, j int) float64 {
			if j == 5 || clock == 2 {
				return negZero
			}
			return ramp(worker, clock, j)
		}},
		{"nothing touched", 11, 3, []int32{}, ramp},
		{"short model", 2, 3, []int32{1}, ramp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := map[int]bool{}
			for _, j := range tc.touched {
				in[int(j)] = true
			}
			dense := func(worker, clock, j int) float64 {
				if in[j] {
					return tc.delta(worker, clock, j)
				}
				return 0
			}
			want, wantEnd, wantSpans := pushRun(t, tc.dim, tc.servers, nil, dense)
			got, gotEnd, gotSpans := pushRun(t, tc.dim, tc.servers, tc.touched, tc.delta)
			wantModel(t, "sparse against dense push", got, want)
			if math.Float64bits(gotEnd) != math.Float64bits(wantEnd) {
				t.Errorf("sparse run ends at %v, dense at %v", gotEnd, wantEnd)
			}
			if gotSpans != wantSpans {
				t.Errorf("sparse run's spans differ from the dense run's:\n%s\nwant\n%s", gotSpans, wantSpans)
			}
		})
	}
}

// TestServerModelNeverNegativeZero pins the invariant that makes skipping
// untouched coordinates exact: a server model starts at +0 and changes only
// by addition, so dense deltas of −0 — and of x then −x — leave +0, never the
// −0 a +0 add would have to repair.
func TestServerModelNeverNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	got, _, _ := pushRun(t, 11, 3, nil, func(worker, clock, j int) float64 {
		switch {
		case j%2 == 0:
			return negZero
		case clock == 2:
			return -float64(j) // undoes clock 1's +j
		case clock == 1:
			return float64(j)
		}
		return negZero
	})
	for j, v := range got {
		if v == 0 && math.Signbit(v) {
			t.Fatalf("model[%d] is −0", j)
		}
	}
}
