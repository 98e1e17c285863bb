package engine

import (
	"testing"

	"mllibstar/internal/des"
)

func TestBroadcastNaiveCostsKM(t *testing.T) {
	const k, dim = 4, 1000
	sim, cl, ctx := testCluster(k, Config{TaskBytes: 0, ResultBytes: 0})
	runOnDriver(sim, func(p *des.Proc) {
		ctx.BroadcastVec(p, "b", dim, false)
	})
	want := float64(k * dim * FloatBytes)
	if got := cl.Net.Node("driver").BytesSent(); got != want {
		t.Errorf("driver sent %g, want %g", got, want)
	}
}

func TestBroadcastTorrentCostsM(t *testing.T) {
	const k, dim = 4, 1000
	sim, cl, ctx := testCluster(k, Config{TaskBytes: 0, ResultBytes: 0})
	runOnDriver(sim, func(p *des.Proc) {
		ctx.BroadcastVec(p, "b", dim, true)
	})
	// Driver ships only one chunk per executor: m bytes total.
	want := float64(dim * FloatBytes)
	if got := cl.Net.Node("driver").BytesSent(); got != want {
		t.Errorf("driver sent %g, want %g", got, want)
	}
	// Executors exchange the remaining chunks: each sends its chunk to k-1
	// peers, so total peer traffic is k*(k-1)*m/k = (k-1)*m.
	peer := cl.Net.TotalBytes() - want
	wantPeer := float64((k - 1) * dim * FloatBytes)
	if peer != wantPeer {
		t.Errorf("peer traffic %g, want %g", peer, wantPeer)
	}
}

func TestBroadcastTorrentFasterOnLargeModels(t *testing.T) {
	const k, dim = 8, 100000
	timeFor := func(torrent bool) float64 {
		sim, _, ctx := testCluster(k, Config{TaskBytes: 0, ResultBytes: 0})
		return runOnDriver(sim, func(p *des.Proc) {
			ctx.BroadcastVec(p, "b", dim, torrent)
		})
	}
	naive, torrent := timeFor(false), timeFor(true)
	if torrent >= naive {
		t.Errorf("torrent %g not faster than naive %g", torrent, naive)
	}
}

func TestBroadcastSingleExecutor(t *testing.T) {
	sim, _, ctx := testCluster(1, testConfig)
	runOnDriver(sim, func(p *des.Proc) {
		ctx.BroadcastVec(p, "b", 100, true) // must not deadlock with k=1
	})
}
