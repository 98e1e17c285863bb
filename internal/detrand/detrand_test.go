package detrand

import (
	"fmt"
	"math/rand"
	"testing"
)

// readBlocks reads one block of each size from s — a block Next cuts short
// at the window's end is continued — and holds every word to ref's Uint64.
func readBlocks(t *testing.T, what string, s *Stream, ref *rand.Rand, sizes ...int) (draws int) {
	t.Helper()
	for _, size := range sizes {
		for left := size; left > 0; {
			blk := s.Next(left)
			if len(blk) == 0 || len(blk) > left {
				t.Fatalf("%s: Next(%d) returned %d words", what, left, len(blk))
			}
			for _, g := range blk {
				if w := ref.Uint64(); g != w {
					t.Fatalf("%s: draw %d of the blocks %v is %#x, math/rand's %#x", what, draws, sizes, g, w)
				}
				draws++
			}
			left -= len(blk)
		}
	}
	return draws
}

// TestStreamEqualsMathRand pins the Stream contract: word for word the
// outputs of rand.New(rand.NewSource(seed)), through the lazily read first
// window and through the recurrence after it, by block and by single draw.
func TestStreamEqualsMathRand(t *testing.T) {
	const draws = 1_000_000
	for _, seed := range []int64{0, 1, -1, 7, 1 << 40, stepSeed(1, 1, 0), stepSeed(1, 200, 7), stepSeed(37, 100, 127)} {
		what := fmt.Sprintf("seed %d", seed)
		ref := rand.New(rand.NewSource(seed))
		s := NewStream(seed)
		for n := 0; n < draws; n += 2 {
			n += readBlocks(t, what, s, ref, 1, 360, 606, 3, 50_000, 607, 1214)
			if g, w := s.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("%s: Uint64 after %d draws is %#x, math/rand's %#x", what, n, g, w)
			}
			if g, w := s.Int63(), ref.Int63(); g != w {
				t.Fatalf("%s: Int63 after %d draws is %#x, math/rand's %#x", what, n+1, g, w)
			}
		}
	}
}

// TestStreamBlocksAroundWindowEnd starts a fresh stream with a block that
// ends just before, on and just after the first and the second window
// boundary (607 and 1214 outputs), where the lazy fill hands over to the
// recurrence, and reads on across the next boundary.
func TestStreamBlocksAroundWindowEnd(t *testing.T) {
	for _, first := range []int{1, 606, 607, 608, 1213, 1214, 1215} {
		ref := rand.New(rand.NewSource(3))
		readBlocks(t, fmt.Sprintf("first block %d", first), NewStream(3), ref, first, 1, 2, 607, 3)
	}
}

// TestSeedStepEqualsStep pins the contract the SendGradient trainer's
// per-executor streams rest on: a Stream re-seeded in place — fresh,
// half-consumed inside its first window, or left far into the recurrence by
// another step — continues with exactly the draws a newly built Step
// generator makes.
func TestSeedStepEqualsStep(t *testing.T) {
	const seed = 7
	s := NewStream(seed)
	for _, c := range []struct{ t, i, used int }{
		{1, 0, 0}, {1, 127, 3}, {2, 0, 1000}, {100, 5, 7}, {3, 1, 607}, {4, 2, 5000}, {1, 0, 0},
	} {
		for n := 0; n < c.used; n++ {
			s.Uint64() // leave the stream mid-window
		}
		s.SeedStep(seed, c.t, c.i)
		want := Step(seed, c.t, c.i)
		for n := 0; n < 2000; n++ {
			if g, w := s.Int63(), want.Int63(); g != w {
				t.Fatalf("step %d worker %d: draw %d is %d after SeedStep, %d from Step", c.t, c.i, n, g, w)
			}
		}
		if g, w := s.Uint64(), want.Uint64(); g != w {
			t.Fatalf("step %d worker %d: Uint64 %d after SeedStep, %d from Step", c.t, c.i, g, w)
		}
	}
}
