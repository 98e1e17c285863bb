package detrand

import (
	"math"
	"testing"
)

// TestReseedStepEqualsStep pins the contract mllib's per-executor generators
// rest on: a generator re-seeded in place — fresh, half-consumed, or left
// over from another step — continues with exactly the draws a newly built
// Step stream makes.
func TestReseedStepEqualsStep(t *testing.T) {
	const seed = 7
	rng := New(seed)
	for _, c := range []struct{ t, i, used int }{
		{1, 0, 0}, {1, 127, 3}, {2, 0, 1000}, {100, 5, 7}, {1, 0, 0},
	} {
		for n := 0; n < c.used; n++ {
			rng.Float64() // leave the generator mid-stream
		}
		ReseedStep(rng, seed, c.t, c.i)
		want := Step(seed, c.t, c.i)
		for n := 0; n < 2000; n++ {
			if g, w := rng.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("step %d worker %d: draw %d is %v after ReseedStep, %v from Step", c.t, c.i, n, g, w)
			}
		}
		if g, w := rng.Int63(), want.Int63(); g != w {
			t.Fatalf("step %d worker %d: Int63 %d after ReseedStep, %d from Step", c.t, c.i, g, w)
		}
	}
}
