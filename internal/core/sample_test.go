package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mllibstar/internal/detrand"
	"mllibstar/internal/train"
)

func TestAggregatorsDefaultIsSqrt(t *testing.T) {
	if got := aggregators(train.Params{}, 8); got != 3 { // ceil(sqrt(8))
		t.Errorf("aggregators(8) = %d, want 3", got)
	}
	if got := aggregators(train.Params{}, 1); got != 1 {
		t.Errorf("aggregators(1) = %d, want 1", got)
	}
	if got := aggregators(train.Params{Aggregators: 5}, 8); got != 5 {
		t.Errorf("explicit aggregators = %d", got)
	}
}

// TestSampleRowsEqualsFloat64Reference holds the block sampler to the
// `rng.Float64() < fraction` loop it replaced, on seeded streams: the same
// rows, and the same generator position afterwards (the next draw after
// sampling is the reference's next draw), at the edges of the fraction range
// and for row counts on both sides of the stream's 607-word window too.
func TestSampleRowsEqualsFloat64Reference(t *testing.T) {
	const maxRows = 100_000
	buf := make([]int32, maxRows+1)
	for i, fraction := range []float64{0, math.Ldexp(1, -60), 0.01, 0.1, 1.0 / 3, 1 - math.Ldexp(1, -53), 1} {
		for _, rows := range []int{0, 1, 360, 606, 607, 608, 1213, 1214, 1215, 50_000, maxRows} {
			seed := int64(11 + i)
			ref := detrand.New(seed)
			var want []int32
			for r := 0; r < rows; r++ {
				if ref.Float64() < fraction {
					want = append(want, int32(r))
				}
			}
			s := detrand.NewStream(seed)
			got := sampleRows(s, rows, fraction, buf)
			if !slices.Equal(got, want) {
				t.Errorf("fraction %g, %d rows: the %d sampled rows are not the reference's %d", fraction, rows, len(got), len(want))
				continue
			}
			if g, w := s.Int63(), ref.Int63(); g != w {
				t.Errorf("fraction %g, %d rows: stream position differs after sampling (next draw %d, reference %d)", fraction, rows, g, w)
			}
		}
	}
	// The ends of the range select what they say: nothing, everything.
	if n := len(sampleRows(detrand.NewStream(1), maxRows, 0, buf)); n != 0 {
		t.Errorf("fraction 0 sampled %d rows", n)
	}
	if n := len(sampleRows(detrand.NewStream(1), maxRows, 1, buf)); n != maxRows {
		t.Errorf("fraction 1 sampled %d of %d rows", n, maxRows)
	}
}

// scripted is a rand.Source replaying fixed 63-bit draws: it puts the draws
// a seeded generator practically never produces — those Float64 rounds up to
// 1 and rejects, and the neighbours of the integer threshold — under the
// Float64 reference loop.
type scripted struct{ draws []int64 }

func (s *scripted) Int63() int64 {
	u := s.draws[0]
	s.draws = s.draws[1:]
	return u
}

func (s *scripted) Seed(int64) {}

// TestDecideRowsEdgeDraws feeds decideRows crafted words. A scripted
// rand.Source can no longer sit under the sampler — only detrand builds a
// Stream, always over math/rand's own source — so the edge draws go to the
// block decision function directly, and the reference is still the
// `rng.Float64() < fraction` loop, over a scripted source replaying the same
// draws.
func TestDecideRowsEdgeDraws(t *testing.T) {
	for _, fraction := range []float64{0, math.Ldexp(1, -60), 0.01, 0.1, 1.0 / 3, 1 - math.Ldexp(1, -53), 1} {
		// Rejected draws (Float64 redraws, so one row takes two draws, or
		// three) and the two sides of this fraction's threshold. The last
		// draw is accepted, so the reference's last row is complete.
		th := sampleThreshold(fraction)
		var draws []int64
		for _, u := range []int64{1<<63 - 1, 0, roundsToOne, roundsToOne - 1, th, th - 1, th + 1, 1<<63 - 1, 1<<63 - 300, th, 1, 0} {
			if u >= 0 {
				draws = append(draws, u)
			}
		}
		src := &scripted{draws: append([]int64(nil), draws...)}
		ref := rand.New(src)
		var want []int32
		rows := 0
		for ; len(src.draws) > 0; rows++ {
			if ref.Float64() < fraction {
				want = append(want, int32(rows))
			}
		}

		// The same draws as raw 64-bit outputs: Int63 drops the top bit,
		// whatever it is.
		words := make([]uint64, len(draws))
		for j, u := range draws {
			words[j] = uint64(u) | uint64(j%2)<<63
		}
		const firstRow = 5 // decideRows continues a sample: rows and k carry over
		out := make([]int32, 1+rows+1)
		out[0] = -1
		row, k := decideRows(words, th, firstRow, out, 1)
		if row != firstRow+rows {
			t.Errorf("fraction %g: %d words decided %d rows, reference %d", fraction, len(words), row-firstRow, rows)
		}
		got := out[1:k]
		for j := range got {
			got[j] -= firstRow
		}
		if !slices.Equal(got, want) {
			t.Errorf("fraction %g: edge draws sampled rows %v, reference %v", fraction, got, want)
		}
		if out[0] != -1 {
			t.Errorf("fraction %g: decideRows wrote below k", fraction)
		}
	}
}

// BenchmarkSampleRows times one step's sampling as a task runs it — re-seed
// the executor's stream, draw a 10 % sample of the partition — in ns per
// draw, at compute8's partition size (50 000 rows, far past the stream's
// first window) and scale128's (360 rows, inside it).
func BenchmarkSampleRows(b *testing.B) {
	for _, n := range []int{50_000, 360} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := detrand.NewStream(1)
			buf := make([]int32, n+1)
			// Enough passes that a -benchtime=1x run is a stable number.
			passes := 4_000_000 / n
			sampled := 0
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				for p := 0; p < passes; p++ {
					s.SeedStep(1, p+1, it&7)
					sampled += len(sampleRows(s, n, 0.1, buf))
				}
			}
			b.StopTimer()
			draws := float64(b.N) * float64(passes) * float64(n)
			if f := float64(sampled) / draws; f < 0.09 || f > 0.11 {
				b.Fatalf("sampled %.4f of the rows at fraction 0.1", f)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/draws, "ns/draw")
		})
	}
}
