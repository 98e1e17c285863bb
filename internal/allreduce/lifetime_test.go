package allreduce_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/clusters"
	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/sparse"
	"mllibstar/internal/vec"
)

// lifetimeInputs returns steps supersteps of k local vectors and one
// reference each. Mixed, the reference is zero on the even executors'
// partitions, where every local vector lists a few nonzeros, and random on
// the odd ones, where every local vector is random: the even partitions
// encode sparse in both rounds, the odd ones dense. Otherwise every
// partition is an even one.
func lifetimeInputs(k, dim, steps int, mixed bool) (in [][][]float64, refs [][]float64) {
	rng := rand.New(rand.NewSource(int64(k*dim + steps)))
	denseOwner := func(o int) bool { return mixed && o%2 == 1 }
	for range steps {
		ref := make([]float64, dim)
		for o := 0; o < k; o++ {
			if lo, hi := vec.PartitionRange(dim, k, o); denseOwner(o) {
				for j := lo; j < hi; j++ {
					ref[j] = rng.NormFloat64()
				}
			}
		}
		step := make([][]float64, k)
		for i := range step {
			step[i] = make([]float64, dim)
			for o := 0; o < k; o++ {
				lo, hi := vec.PartitionRange(dim, k, o)
				if denseOwner(o) {
					for j := lo; j < hi; j++ {
						step[i][j] = rng.NormFloat64()
					}
					continue
				}
				for range 4 {
					step[i][lo+rng.Intn(hi-lo)] = rng.NormFloat64()
				}
			}
		}
		in, refs = append(in, step), append(refs, ref)
	}
	return in, refs
}

// supersteps runs one stage in which every executor calls steps collectives
// back to back on one local vector — AverageDelta, or under overlap
// AverageProduced on every odd superstep — and scribbles NaN over local the
// moment each returns, so a peer still reading it through a shared payload
// would fold the scribble.
func supersteps(t *testing.T, spec clusters.Spec, sw switches, in [][][]float64, refs [][]float64, keep bool) superstepRun {
	t.Helper()
	allreduce.Configure(sw.chunks)
	sparse.Configure(sw.sparse)
	allreduce.ConfigureOverlap(sw.overlap)
	defer func() {
		allreduce.Configure(1)
		sparse.Configure(false)
		allreduce.ConfigureOverlap(false)
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k, dim := spec.Executors, len(refs[0])
	sim, cl, ctx := spec.Build(nil)
	out := make([][][]float64, len(in))
	for s := range out {
		out[s] = make([][]float64, k)
	}
	sim.Spawn("driver", func(p *des.Proc) {
		tasks := make([]engine.Task, k)
		for i := range tasks {
			tasks[i] = engine.Task{Exec: cl.Execs[i], Run: func(p *des.Proc, ex *engine.Executor) (any, float64) {
				local := make([]float64, dim)
				for s := range in {
					name := fmt.Sprintf("t%d", s)
					if sw.overlap && s%2 == 1 {
						clear(local)
						prod := &vecProducer{src: in[s][i], dst: local, total: float64(2 * dim)}
						allreduce.AverageProduced(p, ex, cl.Execs, i, name, local, prod)
					} else {
						copy(local, in[s][i])
						allreduce.AverageDelta(p, ex, cl.Execs, i, name, local, refs[s])
					}
					if keep {
						out[s][i] = append([]float64(nil), local...)
					}
					for j := range local {
						local[j] = math.NaN()
					}
				}
				return nil, 0
			}}
		}
		ctx.RunStage(p, "supersteps", tasks)
	})
	sim.Run()
	runtime.ReadMemStats(&after)
	return superstepRun{out: out, bytes: after.TotalAlloc - before.TotalAlloc, objects: after.Mallocs - before.Mallocs, cl: cl}
}

// superstepRun is what supersteps reports.
type superstepRun struct {
	out            [][][]float64 // every executor's result of every superstep, when kept
	bytes, objects uint64        // what the run allocated
	cl             *engine.Cluster
}

// lagging is a cluster whose executors fold at speeds four times apart, so
// fast executors run ahead into the next superstep while slow peers still
// fold and install the last one.
func lagging(k int) clusters.Spec {
	spec := clusters.Test(k)
	spec.HeteroSpread = 3
	return spec
}

// TestSparseFoldBufferLifetime holds the sparse collective's two buffer
// shortcuts — the Reduce-Scatter encoding local in place, the fold buffer
// own taken from and returned to the cluster pool — to the dense, unpooled
// run bit for bit: back-to-back supersteps on a lagging cluster, local
// scribbled right after every return, on a model whose partitions encode
// dense on odd owners and sparse on even ones, unchunked and at C = 8 with
// overlap. Run under -race it also catches a shared buffer written while a
// peer reads it.
func TestSparseFoldBufferLifetime(t *testing.T) {
	const k, dim, steps = 4, 4096, 4
	in, refs := lifetimeInputs(k, dim, steps, true)
	for _, sw := range []switches{{chunks: 1}, {chunks: 8, overlap: true}} {
		t.Run(fmt.Sprintf("C%d/overlap=%v", sw.chunks, sw.overlap), func(t *testing.T) {
			want := supersteps(t, lagging(k), sw, in, refs, true).out
			sw.sparse = true
			got := supersteps(t, lagging(k), sw, in, refs, true).out
			for s := range want {
				for i := range want[s] {
					for j := range want[s][i] {
						if math.Float64bits(got[s][i][j]) != math.Float64bits(want[s][i][j]) {
							t.Fatalf("superstep %d executor %d coord %d: sparse %v, dense %v", s, i, j, got[s][i][j], want[s][i][j])
						}
					}
				}
			}
		})
	}
}

// TestSparseFoldBufferPooled pins the recycling: when every partition
// encodes sparse, a further superstep takes each executor's fold buffer
// from the pool instead of allocating it, so it allocates far less than
// the one model the k fold buffers add up to (a model per superstep before
// the pool; messages, events and the sparse entries remain).
func TestSparseFoldBufferPooled(t *testing.T) {
	const k, dim, n = 4, 1 << 17, 8
	modelBytes := uint64(dim * engine.FloatBytes)
	for _, sw := range []switches{{chunks: 1, sparse: true}, {chunks: 8, sparse: true, overlap: true}} {
		in, refs := lifetimeInputs(k, dim, 2*n, false)
		short := supersteps(t, lagging(k), sw, in[:n], refs[:n], false).bytes
		long := supersteps(t, lagging(k), sw, in, refs, false).bytes
		if long < short {
			continue
		}
		perStep := (long - short) / n
		t.Logf("C%d: %d supersteps allocate %d B, %d supersteps %d B: %d B per further superstep, model %d B", sw.chunks, n, short, 2*n, long, perStep, modelBytes)
		if perStep > modelBytes/2 {
			t.Errorf("C%d: a further superstep allocates %d B, more than half of one %d B model: the fold buffers are allocated again", sw.chunks, perStep, modelBytes)
		}
	}
}

// TestDenseSuperstepAllocs pins the message path's steady state: a further
// dense superstep at k = 16 allocates the Reduce-Scatter's k(k−1) block
// copies (EncodeCopy's data) and a fixed number of objects per executor —
// its task, tags, receive buffers and offloaded closures, 18 of them — not
// one per message of the 2(k−1) each sends: headers, simnet messages and
// mailboxes are recycled, and the folds order their blocks without a sort.
func TestDenseSuperstepAllocs(t *testing.T) {
	const k, dim, n, perExecutor = 16, 16 * 64, 8, 24
	in, refs := lifetimeInputs(k, dim, 2*n, true)
	sw := switches{chunks: 1}
	short := supersteps(t, clusters.Test(k), sw, in[:n], refs[:n], false).objects
	long := supersteps(t, clusters.Test(k), sw, in, refs, false).objects
	if long < short {
		return
	}
	perStep := float64(long-short) / n
	copies := float64(k * (k - 1))
	extra := (perStep - copies) / k
	t.Logf("a further superstep allocates %.0f objects: %.0f block copies and %.1f more per executor, which sends %d messages", perStep, copies, extra, 2*(k-1))
	if extra > perExecutor {
		t.Errorf("a further superstep allocates %.1f objects per executor beyond the block copies, more than %d: the message path allocates per message again", extra, perExecutor)
	}
}

// TestMailboxesReclaimed: a node keeps no mailbox for a collective that is
// over. After 100 back-to-back collectives, each executor holds at most the
// mailboxes of the tags that can be in flight at once — its task mailbox
// and one collective's two rounds — counting reclaimed ones kept for reuse.
func TestMailboxesReclaimed(t *testing.T) {
	const k, dim, steps = 4, 64, 100
	in, refs := lifetimeInputs(k, dim, steps, true)
	r := supersteps(t, lagging(k), switches{chunks: 1}, in, refs, false)
	for _, name := range r.cl.Execs {
		held, spare := r.cl.Net.Node(name).Mailboxes()
		t.Logf("%s: %d mailboxes under a tag, %d spare", name, held, spare)
		if held+spare > 3 {
			t.Errorf("%s holds %d mailboxes (%d under a tag, %d spare) after %d collectives, want at most 3", name, held+spare, held, spare, steps)
		}
	}
}
