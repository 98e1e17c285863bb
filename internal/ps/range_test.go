package ps

import (
	"testing"

	"mllibstar/internal/data"
)

// TestBlockAlignedRangeTiles: for any shard count the block-aligned ranges
// tile [0, dim) in order, every boundary except dim is a multiple of the
// block, and empty tail shards are legal when blocks < shards.
func TestBlockAlignedRangeTiles(t *testing.T) {
	for _, dim := range []int{1, 255, 256, 257, 5000, 16 * data.ScoreBlock} {
		for _, k := range []int{1, 3, 4, 16, 40} {
			prev := 0
			for i := 0; i < k; i++ {
				lo, hi := BlockAlignedRange(dim, k, i, data.ScoreBlock)
				if lo != prev || hi < lo {
					t.Fatalf("dim=%d k=%d shard %d: range [%d,%d) does not tile (prev end %d)", dim, k, i, lo, hi, prev)
				}
				if lo%data.ScoreBlock != 0 && lo != dim {
					t.Fatalf("dim=%d k=%d shard %d: lo=%d not block-aligned", dim, k, i, lo)
				}
				if hi%data.ScoreBlock != 0 && hi != dim {
					t.Fatalf("dim=%d k=%d shard %d: hi=%d not block-aligned", dim, k, i, hi)
				}
				prev = hi
			}
			if prev != dim {
				t.Fatalf("dim=%d k=%d: shards cover [0,%d), want [0,%d)", dim, k, prev, dim)
			}
		}
	}
}

// TestRangeMatchesVec: Range is the same partitioning the servers use.
func TestRangeMatchesVec(t *testing.T) {
	total := 0
	for i := 0; i < 4; i++ {
		lo, hi := Range(10, 4, i)
		total += hi - lo
	}
	if total != 10 {
		t.Fatalf("Range shards cover %d coordinates, want 10", total)
	}
}

// TestOwnerInvertsRange: every coordinate's owner is the server whose Range
// holds it, with that range's start — short models (fewer coordinates than
// servers) included.
func TestOwnerInvertsRange(t *testing.T) {
	for _, dim := range []int{1, 2, 7, 11, 12, 100, 15000} {
		for _, k := range []int{1, 3, 4, 8, 13} {
			p := &PS{cfg: Config{Dim: dim, Servers: k}}
			for s := 0; s < k; s++ {
				lo, hi := Range(dim, k, s)
				for j := lo; j < hi; j++ {
					if gs, glo := p.owner(j); gs != s || glo != lo {
						t.Fatalf("dim=%d k=%d: owner(%d) = (%d, %d), want (%d, %d)", dim, k, j, gs, glo, s, lo)
					}
				}
			}
		}
	}
}
