package engine

import (
	"fmt"
	"sort"

	"mllibstar/internal/des"
	"mllibstar/internal/obs"
	"mllibstar/internal/par"
	"mllibstar/internal/sparse"
	"mllibstar/internal/vec"
)

// FloatBytes is the wire size of one float64 model coordinate.
const FloatBytes = 8

// aggMsg is a leaf partial in flight to its group aggregator, tagged with
// the sender's task index so the aggregator can fold in canonical order.
type aggMsg struct {
	from int
	enc  sparse.Enc
}

// IsSparse reports the wire encoding of the carried partial, so telemetry
// books the message under the right encoding (see obs.EncodingOf).
func (m aggMsg) IsSparse() bool { return m.enc.IsSparse() }

// TreeAggregateVec runs compute on every executor to produce a partial dense
// vector of length dim, then aggregates the partials into the driver through
// `aggregators` intermediate executors — MLlib's treeAggregate. With
// aggregators == number of executors the hierarchy degenerates to direct
// aggregation at the driver; MLlib's default depth-2 tree corresponds to
// roughly sqrt(k) aggregators.
//
// payloadBytes extra bytes are shipped with each task descriptor; MLlib uses
// this to broadcast the current model to every executor. compute must be a
// pure closure in the offload sense (see Task.Pure): it receives the task
// index (use it — not an executor name — to select the data partition, so
// speculative copies and failure rerouting compute the right partition on
// any host) and returns its partial plus the virtual-time work to charge;
// the engine performs the charge. Partials may come from the context's
// buffer pool (GetVec) — the engine recycles every partial it consumes, and
// ownership of the returned sum transfers to the caller, who may PutVec it
// when the values are dead. The returned vector is the element-wise sum of
// all partials. name must be unique per call (it namespaces the shuffle
// tag); the per-iteration step counter is the natural choice.
//
// When internal/sparse is enabled, partials whose nonzero support is small
// (gradient sums over a mini batch, say) ship as index–value encodings and
// are decoded back to dense before folding — results are bit-identical to
// the dense path, only wire bytes and virtual time change.
func (ctx *Context) TreeAggregateVec(p *des.Proc, name string, dim, aggregators int,
	payloadBytes float64, compute func(task int) (partial []float64, work float64)) []float64 {
	return ctx.TreeAggregateVecDelta(p, name, dim, aggregators, payloadBytes, nil, compute)
}

// TreeAggregateVecDelta is TreeAggregateVec with a reference vector for
// sparse delta encoding: partials are compressed relative to ref (nil = the
// zero vector), which must hold identical bits wherever it is read — the
// SendModel trainers pass the model they broadcast with the task
// descriptors, against which each executor's locally-refined model is a
// sparse overlay. ref must not be mutated while the stage runs.
//
// The aggregator-to-driver result legs are charged at their encoded size
// too (the driver holds ref, so a delta-coded reply is decodable there),
// but the folds themselves always run on dense vectors, in ascending task
// order — a canonical order shared by the sparse and dense paths, so
// summation cannot depend on how encoding sizes shift message timing.
func (ctx *Context) TreeAggregateVecDelta(p *des.Proc, name string, dim, aggregators int,
	payloadBytes float64, ref []float64, compute func(task int) (partial []float64, work float64)) []float64 {

	if ref != nil && len(ref) != dim {
		panic(fmt.Sprintf("engine: ref dim %d != %d", len(ref), dim))
	}
	k := ctx.NumExecutors()
	if aggregators <= 0 || aggregators > k {
		aggregators = k
	}
	tag := "agg:" + name

	// Executor index i belongs to group i%aggregators, whose aggregator is
	// the executor with index i%aggregators.
	groupSize := make([]int, aggregators)
	for i := 0; i < k; i++ {
		groupSize[i%aggregators]++
	}

	// partials[i] is written by task i's pure closure and read by its Run
	// after the engine joins the closure — the join's happens-before edge
	// orders the two.
	partials := make([][]float64, k)
	tasks := make([]Task, k)
	for i := 0; i < k; i++ {
		i := i
		group := i % aggregators
		isAgg := i < aggregators
		aggName := ctx.Cluster.Execs[group]
		tasks[i] = Task{
			Exec:         ctx.Cluster.Execs[i],
			PayloadBytes: payloadBytes,
			// With flat aggregation every task is a pure compute-and-reply
			// (no peer messaging), so speculative copies are safe.
			Speculatable: aggregators >= k,
			Pure: func() float64 {
				partial, work := compute(i)
				if len(partial) != dim {
					panic(fmt.Sprintf("engine: partial dim %d != %d", len(partial), dim))
				}
				partials[i] = partial
				return work
			},
			Run: func(p *des.Proc, ex *Executor) (any, float64) {
				partial := partials[i]
				if !isAgg {
					// Forward the partial to the group's aggregator and
					// return an empty result to the driver. A sparse
					// encoding copies the entries, so the pooled partial is
					// dead at the sender; a dense encoding ships the buffer
					// itself and the aggregator recycles it after the fold.
					enc := sparse.EncodeShared(partial, ref)
					ex.Send(p, aggName, tag, enc.WireBytes(), aggMsg{from: i, enc: enc})
					if enc.IsSparse() {
						ctx.PutVec(partial)
					}
					return nil, 0
				}
				// Aggregator: collect the group members' partials under the
				// same per-message Aggregate charge the dense engine pays,
				// then fold them in ascending sender order — the canonical
				// summation order — on the offload pool. A sparse partial is
				// decoded through one scratch vector and added densely: the
				// coordinates it does not list must be added too (−0 + 0 is
				// +0). A dense partial is the sender's pooled buffer, handed
				// over with the message and recycled here after the fold.
				members := make([]aggMsg, 0, groupSize[group]-1)
				var scratch []float64
				for m := 1; m < groupSize[group]; m++ {
					msg := ex.Recv(p, tag)
					am := msg.Payload.(aggMsg)
					// A sparse-encoded partial's per-message charge models
					// the decode, so it is recorded as Encode; the dense path
					// keeps the Aggregate phase (the charge is the fold).
					ph := obs.PhaseAgg
					if am.enc.IsSparse() {
						ph = obs.PhaseEncode
						if scratch == nil {
							scratch = ctx.GetVec(dim)
						}
					}
					ex.ChargeKind(p, float64(dim), ph, name)
					members = append(members, am)
				}
				sort.Slice(members, func(a, b int) bool { return members[a].from < members[b].from })
				h := par.Do(func() {
					for _, m := range members {
						vec.AddScaled(partial, m.enc.Decoded(scratch, ref), 1)
					}
				})
				h.Join()
				for _, m := range members {
					ctx.PutVec(m.enc.Dense())
				}
				ctx.PutVec(scratch)
				// The reply to the driver is charged at its encoded size;
				// the payload stays the dense sum (the driver folds it
				// directly, as ever).
				return partial, sparse.WireBytesFor(partial, ref)
			},
		}
	}

	results := ctx.RunStage(p, name, tasks)
	driver := ctx.Cluster.Net.Node(ctx.Cluster.Driver)
	var total []float64
	for _, r := range results {
		if r == nil {
			continue
		}
		part := r.([]float64)
		if total == nil {
			// The first partial becomes the running total — ownership moves
			// to the caller with the return value.
			total = part
			continue
		}
		driver.ComputeAsyncKind(p, float64(dim), obs.PhaseAgg, name, func() {
			vec.AddScaled(total, part, 1)
		})
		ctx.PutVec(part)
	}
	return total
}
