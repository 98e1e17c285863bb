package ps

import "testing"

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
