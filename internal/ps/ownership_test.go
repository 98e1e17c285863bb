package ps_test

import (
	"math"
	"runtime"
	"testing"

	"mllibstar/internal/des"
	"mllibstar/internal/ps"
)

// The ownership contract of the message paths: every model-sized vector in
// flight is a pooled copy that changes owner with the message, so nothing a
// caller passes in or gets back is ever shared with a server — or, through a
// recycled buffer, with a later message.

func ramp(dim int, scale float64) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = scale * float64(i+1)
	}
	return v
}

func scribble(v []float64) {
	for i := range v {
		v[i] = math.NaN()
	}
}

func wantModel(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: w[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestPushCopiesDelta(t *testing.T) {
	// Push returns once the chunks have left the worker's NIC; the servers
	// apply them later. Overwriting delta in between must change nothing
	// they apply.
	const dim = 11
	sim, _, names, deploy := build(t, 3, ps.Config{Dim: dim, Servers: 3, Workers: 1, CombineScale: 1})
	want := ramp(dim, 1)
	sim.Spawn("w0", func(p *des.Proc) {
		delta := ramp(dim, 1)
		deploy.Push(p, names[0], 0, 1, delta)
		scribble(delta)
		wantModel(t, "pull after scribbling the pushed delta", deploy.Pull(p, names[0], 0, 1), want)
	})
	sim.Run()
}

func TestPullIntoResultIsWorkerOwned(t *testing.T) {
	// The pulled vector is the worker's: overwriting it changes neither what
	// the servers hold nor — the reply buffers having gone back to the pool,
	// from where the next push takes its chunks — what they are sent next.
	const dim = 11
	sim, _, names, deploy := build(t, 3, ps.Config{Dim: dim, Servers: 3, Workers: 1, CombineScale: 1})
	sim.Spawn("w0", func(p *des.Proc) {
		deploy.Push(p, names[0], 0, 1, ramp(dim, 1))
		w := make([]float64, dim)
		deploy.PullInto(p, names[0], 0, 1, w)
		wantModel(t, "first pull", w, ramp(dim, 1))
		scribble(w)

		again := make([]float64, dim)
		deploy.PullInto(p, names[0], 0, 1, again)
		wantModel(t, "pull after scribbling the pulled vector", again, ramp(dim, 1))

		deploy.Push(p, names[0], 0, 2, ramp(dim, 2))
		scribble(again)
		deploy.PullInto(p, names[0], 0, 2, w)
		wantModel(t, "pull after a push that reused the reply buffers", w, ramp(dim, 3))
	})
	sim.Run()
}

func TestPullIntoWrongDimPanics(t *testing.T) {
	sim, _, names, deploy := build(t, 1, ps.Config{Dim: 4, Servers: 1, Workers: 1, CombineScale: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	sim.Spawn("w0", func(p *des.Proc) {
		deploy.PullInto(p, names[0], 0, 0, make([]float64, 5))
	})
	sim.Run()
}

func TestPullReturnsCallerOwnedSlice(t *testing.T) {
	// Pull keeps its allocating contract: each call returns a fresh vector
	// that no later pull or push writes.
	const dim = 9
	sim, _, names, deploy := build(t, 2, ps.Config{Dim: dim, Servers: 2, Workers: 1, CombineScale: 1})
	sim.Spawn("w0", func(p *des.Proc) {
		deploy.Push(p, names[0], 0, 1, ramp(dim, 1))
		first := deploy.Pull(p, names[0], 0, 1)
		deploy.Push(p, names[0], 0, 2, ramp(dim, 1))
		second := deploy.Pull(p, names[0], 0, 2)
		if &first[0] == &second[0] {
			t.Fatal("two Pulls returned the same backing array")
		}
		wantModel(t, "first pull after a later push and pull", first, ramp(dim, 1))
		scribble(first)
		wantModel(t, "second pull after scribbling the first", second, ramp(dim, 2))
	})
	sim.Run()
}

// psRunBytes returns the heap bytes a deployment of k workers and k servers
// allocates over the given number of pull-and-push clocks, set-up included,
// with every worker keeping its pull and delta buffers for the whole run.
// With touched non-nil the pushes are PushTouched's sparse ones over it.
func psRunBytes(t *testing.T, k, dim, clocks int, touched []int32) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim, _, names, deploy := build(t, k, ps.Config{Dim: dim, Servers: k, Workers: k, Staleness: 1, CombineScale: 1 / float64(k)})
	for r := 0; r < k; r++ {
		r := r
		sim.Spawn("worker", func(p *des.Proc) {
			w := make([]float64, dim)
			delta := ramp(dim, 1e-6)
			for c := 1; c <= clocks; c++ {
				deploy.PullInto(p, names[r], r, c-1, w)
				if touched == nil {
					deploy.Push(p, names[r], r, c, delta)
				} else {
					deploy.PushTouched(p, names[r], r, c, delta, touched)
				}
			}
		})
	}
	sim.Run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPSSteadyStateAllocs guards the recycling: once the pools hold the
// peak number of buffers in flight, further clocks allocate messages and
// events but nothing model-sized. Before the pool every clock allocated 3·k
// models (a snapshot and an assembled model per pull, the chunks per push).
// The sparse push is held to the same bound with half the model touched:
// its (index, value) chunks, 12 bytes a coordinate, come from the chunk free
// list too, so a further clock allocates no index or value buffer.
func TestPSSteadyStateAllocs(t *testing.T) {
	const k, dim, n = 4, 1 << 16, 20
	modelBytes := uint64(dim * 8)
	half := make([]int32, 0, dim/2)
	for j := int32(dim - 1); j >= 0; j -= 2 { // every other coordinate, descending
		half = append(half, j)
	}
	for _, tc := range []struct {
		name    string
		touched []int32
	}{{"dense push", nil}, {"touched-set push", half}} {
		short := psRunBytes(t, k, dim, n, tc.touched)
		long := psRunBytes(t, k, dim, 2*n, tc.touched)
		if long < short {
			continue
		}
		perClock := (long - short) / n
		t.Logf("%s: %d clocks allocate %d B, %d clocks %d B: %d B per further clock, model %d B", tc.name, n, short, 2*n, long, perClock, modelBytes)
		if perClock > modelBytes/4 {
			t.Errorf("%s: a further clock allocates %d B, more than a quarter of one %d B model: a message path allocates model-sized buffers again", tc.name, perClock, modelBytes)
		}
	}
}
