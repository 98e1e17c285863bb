package mllib

import (
	"math"
	"math/rand"
	"testing"

	"mllibstar/internal/detrand"
)

// scripted is a rand.Source replaying fixed 63-bit draws, then a real
// stream: it puts the draws a seeded generator practically never produces —
// those Float64 rounds up to 1 and rejects, and the neighbours of the
// integer threshold — under the sampler.
type scripted struct {
	draws []int64
	rest  rand.Source
}

func (s *scripted) Int63() int64 {
	if len(s.draws) == 0 {
		return s.rest.Int63()
	}
	u := s.draws[0]
	s.draws = s.draws[1:]
	return u
}

func (s *scripted) Seed(int64) {}

// TestSampleRowsEqualsFloat64Reference holds the integer-threshold sampler to
// the `rng.Float64() < fraction` loop it replaced: the same rows, and the
// same generator state afterwards, at the edges of the fraction range too.
func TestSampleRowsEqualsFloat64Reference(t *testing.T) {
	var buf []int32
	// equal runs both samplers on two generators built by mk.
	equal := func(what string, mk func() *rand.Rand, rows int, fraction float64) {
		t.Helper()
		ref := mk()
		var want []int32
		for r := 0; r < rows; r++ {
			if ref.Float64() < fraction {
				want = append(want, int32(r))
			}
		}
		rng := mk()
		got := sampleRows(rng, rows, fraction, &buf)
		if len(got) != len(want) {
			t.Errorf("fraction %g, %s: %d rows sampled, reference %d", fraction, what, len(got), len(want))
			return
		}
		for j := range got {
			if got[j] != want[j] {
				t.Errorf("fraction %g, %s: sample %d is row %d, reference row %d", fraction, what, j, got[j], want[j])
				return
			}
		}
		if g, w := rng.Int63(), ref.Int63(); g != w {
			t.Errorf("fraction %g, %s: generator state differs after sampling (next draw %d, reference %d)", fraction, what, g, w)
		}
	}

	const rows = 100_000
	for i, fraction := range []float64{0, math.Ldexp(1, -60), 0.01, 0.1, 1.0 / 3, 1 - math.Ldexp(1, -53), 1} {
		equal("seeded stream", func() *rand.Rand { return detrand.New(int64(11 + i)) }, rows, fraction)

		// Rejected draws (Float64 redraws, so one row takes two draws) and
		// the two sides of this fraction's threshold.
		th := sampleThreshold(fraction)
		var edge []int64
		for _, u := range []int64{1<<63 - 1, 0, roundsToOne, roundsToOne - 1, th, th - 1, th + 1, 1<<63 - 1, 1<<63 - 300, th} {
			if u >= 0 {
				edge = append(edge, u)
			}
		}
		equal("edge draws", func() *rand.Rand {
			return rand.New(&scripted{draws: append([]int64(nil), edge...), rest: rand.NewSource(5)})
		}, 64, fraction)
	}
	// The ends of the range select what they say: nothing, everything.
	if n := len(sampleRows(detrand.New(1), rows, 0, &buf)); n != 0 {
		t.Errorf("fraction 0 sampled %d rows", n)
	}
	if n := len(sampleRows(detrand.New(1), rows, 1, &buf)); n != rows {
		t.Errorf("fraction 1 sampled %d of %d rows", n, rows)
	}
}
