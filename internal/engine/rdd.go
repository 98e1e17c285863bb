package engine

import (
	"fmt"

	"mllibstar/internal/des"
	"mllibstar/internal/detrand"
)

// RDD is a resilient distributed dataset: a partitioned collection defined
// by its lineage. Partition i is pinned to executor i mod k. A partition is
// computed on demand by replaying the lineage — unless the RDD is cached and
// the executor's block store already holds it, in which case the stored
// block is returned at zero cost, which is what makes iterative workloads
// (like gradient descent) viable on this engine, exactly as in Spark.
type RDD[T any] struct {
	ctx    *Context
	id     int
	name   string
	parts  int
	cached bool
	// compute produces partition part on the executor process, charging any
	// work it performs.
	compute func(p *des.Proc, ex *Executor, part int) []T
}

// NumPartitions returns the RDD's partition count.
func (r *RDD[T]) NumPartitions() int { return r.parts }

// ID returns the RDD's unique id (used by Executor.DropCache).
func (r *RDD[T]) ID() int { return r.id }

// Cache marks the RDD so computed partitions are stored in executor block
// stores and reused. It returns the receiver for chaining.
func (r *RDD[T]) Cache() *RDD[T] {
	r.cached = true
	return r
}

// ExecutorFor returns the executor name hosting partition part.
func (r *RDD[T]) ExecutorFor(part int) string {
	return r.ctx.Cluster.Execs[part%r.ctx.NumExecutors()]
}

// materialize returns partition part's data, consulting the block store for
// cached RDDs and recomputing through the lineage otherwise.
func (r *RDD[T]) materialize(p *des.Proc, ex *Executor, part int) []T {
	if r.cached {
		if blk, ok := ex.blocks[blockID{rdd: r.id, part: part}]; ok {
			return blk.([]T)
		}
	}
	out := r.compute(p, ex, part)
	if r.cached {
		ex.blocks[blockID{rdd: r.id, part: part}] = out
	}
	return out
}

// Parallelize distributes pre-partitioned data across the executors. The
// data is considered already loaded (as when Spark reads a cached HDFS
// dataset); computing a partition costs nothing until transformations are
// applied.
func Parallelize[T any](ctx *Context, name string, parts [][]T) *RDD[T] {
	ctx.nextRDD++
	local := parts
	return &RDD[T]{
		ctx:   ctx,
		id:    ctx.nextRDD,
		name:  name,
		parts: len(parts),
		compute: func(p *des.Proc, ex *Executor, part int) []T {
			return local[part]
		},
	}
}

// Map derives an RDD by applying f to every element. costPerElem work units
// are charged per input element.
func Map[T, U any](r *RDD[T], name string, costPerElem float64, f func(T) U) *RDD[U] {
	r.ctx.nextRDD++
	return &RDD[U]{
		ctx:   r.ctx,
		id:    r.ctx.nextRDD,
		name:  name,
		parts: r.parts,
		compute: func(p *des.Proc, ex *Executor, part int) []U {
			in := r.materialize(p, ex, part)
			if costPerElem > 0 && len(in) > 0 {
				ex.Charge(p, costPerElem*float64(len(in)))
			}
			out := make([]U, len(in))
			for i, v := range in {
				out[i] = f(v)
			}
			return out
		},
	}
}

// MapPartitions derives an RDD by transforming whole partitions. f reports
// the work it performed.
func MapPartitions[T, U any](r *RDD[T], name string, f func(in []T) (out []U, work float64)) *RDD[U] {
	r.ctx.nextRDD++
	return &RDD[U]{
		ctx:   r.ctx,
		id:    r.ctx.nextRDD,
		name:  name,
		parts: r.parts,
		compute: func(p *des.Proc, ex *Executor, part int) []U {
			in := r.materialize(p, ex, part)
			out, work := f(in)
			if work > 0 {
				ex.Charge(p, work)
			}
			return out
		},
	}
}

// Filter derives an RDD keeping the elements for which pred is true,
// charging costPerElem work units per input element.
func Filter[T any](r *RDD[T], name string, costPerElem float64, pred func(T) bool) *RDD[T] {
	return MapPartitions(r, name, func(in []T) ([]T, float64) {
		out := make([]T, 0, len(in))
		for _, v := range in {
			if pred(v) {
				out = append(out, v)
			}
		}
		return out, costPerElem * float64(len(in))
	})
}

// Sample derives a Bernoulli sample of the RDD: each element is kept with
// the given probability. Sampling is deterministic per (seed, partition) —
// the primitive behind MLlib's per-iteration mini-batch selection.
func Sample[T any](r *RDD[T], name string, fraction float64, seed int64) *RDD[T] {
	if fraction < 0 || fraction > 1 {
		panic(fmt.Sprintf("engine: Sample fraction %g", fraction))
	}
	r.ctx.nextRDD++
	return &RDD[T]{
		ctx:   r.ctx,
		id:    r.ctx.nextRDD,
		name:  name,
		parts: r.parts,
		compute: func(p *des.Proc, ex *Executor, part int) []T {
			in := r.materialize(p, ex, part)
			rng := detrand.Partition(seed, part)
			out := make([]T, 0, int(fraction*float64(len(in)))+1)
			for _, v := range in {
				if rng.Float64() < fraction {
					out = append(out, v)
				}
			}
			// Scanning the partition to sample costs a unit per element.
			ex.Charge(p, float64(len(in)))
			return out
		},
	}
}

// stageOverParts builds one task per partition, round-robin over executors.
func stageOverParts[T, R any](p *des.Proc, r *RDD[T], name string, resultBytes func(R) float64,
	run func(p *des.Proc, ex *Executor, part int) R) []R {

	tasks := make([]Task, r.parts)
	for i := 0; i < r.parts; i++ {
		i := i
		tasks[i] = Task{
			Exec: r.ExecutorFor(i),
			Run: func(p *des.Proc, ex *Executor) (any, float64) {
				res := run(p, ex, i)
				return res, resultBytes(res)
			},
		}
	}
	raw := r.ctx.RunStage(p, name, tasks)
	out := make([]R, len(raw))
	for i, v := range raw {
		out[i] = v.(R)
	}
	return out
}

// Collect materializes every partition and ships the data to the driver,
// charging bytesPerElem per element on the wire. It returns the partitions
// in order.
func Collect[T any](p *des.Proc, r *RDD[T], bytesPerElem float64) [][]T {
	return stageOverParts(p, r, r.name+"/collect",
		func(part []T) float64 { return bytesPerElem * float64(len(part)) },
		func(p *des.Proc, ex *Executor, part int) []T {
			return r.materialize(p, ex, part)
		})
}

// Count returns the total number of elements.
func Count[T any](p *des.Proc, r *RDD[T]) int {
	counts := stageOverParts(p, r, r.name+"/count",
		func(int) float64 { return 8 },
		func(p *des.Proc, ex *Executor, part int) int {
			return len(r.materialize(p, ex, part))
		})
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// Reduce combines all elements with the associative function f, first within
// partitions (charging costPerElem per element) and then at the driver. It
// panics on an empty RDD, matching Spark's behaviour.
func Reduce[T any](p *des.Proc, r *RDD[T], resultBytes float64, costPerElem float64, f func(a, b T) T) T {
	type partRes struct {
		val T
		ok  bool
	}
	partials := stageOverParts(p, r, r.name+"/reduce",
		func(partRes) float64 { return resultBytes },
		func(p *des.Proc, ex *Executor, part int) partRes {
			in := r.materialize(p, ex, part)
			if costPerElem > 0 && len(in) > 0 {
				ex.Charge(p, costPerElem*float64(len(in)))
			}
			if len(in) == 0 {
				return partRes{}
			}
			acc := in[0]
			for _, v := range in[1:] {
				acc = f(acc, v)
			}
			return partRes{val: acc, ok: true}
		})
	var acc T
	have := false
	for _, pr := range partials {
		if !pr.ok {
			continue
		}
		if !have {
			acc, have = pr.val, true
		} else {
			acc = f(acc, pr.val)
		}
	}
	if !have {
		panic("engine: Reduce of empty RDD")
	}
	return acc
}
