package engine

import (
	"fmt"

	"mllibstar/internal/des"
)

// Block is one unit of shuffle data in flight from one executor to another
// during an Exchange. Bytes is the modeled wire size — what the virtual
// clock is charged — and need not be the in-memory size of Payload: the
// simulation deliberately separates the two, Go data structures being the
// mechanism and Bytes the model.
type Block struct {
	From    int
	To      int
	Bytes   float64
	Payload any
}

// Exchange is the engine's generic all-to-all shuffle round, the primitive
// the paper implements AllReduce on ("we use the shuffle operator in
// Spark"). It must be called from within the same stage on every executor:
// each executor sends exactly one block to every other executor (empty
// blocks still carry framing overhead, as Spark's empty shuffle partitions
// do) and returns the k−1 blocks destined to it, ordered by arrival.
//
// name must be unique per collective call; outgoing must contain exactly
// one entry per peer (self excluded), with To set to the peer's executor
// index.
func Exchange(p *des.Proc, ex *Executor, execs []string, self int, name string, outgoing []Block) []Block {
	k := len(execs)
	if self < 0 || self >= k {
		panic(fmt.Sprintf("engine: Exchange self %d out of %d", self, k))
	}
	if len(outgoing) != k-1 {
		panic(fmt.Sprintf("engine: Exchange wants %d outgoing blocks, got %d", k-1, len(outgoing)))
	}
	seen := make([]bool, k)
	tag := "xch:" + name
	for i := range outgoing {
		b := outgoing[i]
		if b.To < 0 || b.To >= k || b.To == self {
			panic(fmt.Sprintf("engine: Exchange block to %d from %d", b.To, self))
		}
		if seen[b.To] {
			panic(fmt.Sprintf("engine: Exchange duplicate destination %d", b.To))
		}
		seen[b.To] = true
		b.From = self
		ex.Send(p, execs[b.To], tag, b.Bytes, b)
	}
	in := make([]Block, 0, k-1)
	for len(in) < k-1 {
		msg := ex.Recv(p, tag)
		in = append(in, msg.Payload.(Block))
	}
	return in
}

// Pair is a keyed element for the ByKey operators.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// HashPartitioner assigns keys to partitions by Go's map-independent FNV
// hash of the key's formatted value — stable across runs.
func HashPartitioner[K comparable](numParts int) func(K) int {
	return func(key K) int {
		s := fmt.Sprint(key)
		h := uint32(2166136261)
		for i := 0; i < len(s); i++ {
			h ^= uint32(s[i])
			h *= 16777619
		}
		return int(h % uint32(numParts))
	}
}

// shuffleByKey performs the shuffle boundary of the ByKey operators: it
// materializes the input RDD, exchanges elements so each key lands on its
// owning executor, and returns a new, materialized RDD with one partition
// per executor. Like Spark, the shuffle is an eager stage boundary: the
// result does not recompute through the exchange (its lineage is truncated
// at the shuffle, mirroring Spark's shuffle files).
func shuffleByKey[K comparable, V any](p *des.Proc, r *RDD[Pair[K, V]], name string,
	bytesPerElem float64, part func(K) int) *RDD[Pair[K, V]] {

	ctx := r.ctx
	k := ctx.NumExecutors()
	out := make([][]Pair[K, V], k)

	tasks := make([]Task, k)
	for i := 0; i < k; i++ {
		i := i
		tasks[i] = Task{
			Exec: ctx.Cluster.Execs[i],
			Run: func(p *des.Proc, ex *Executor) (any, float64) {
				// Materialize every partition of r pinned to this executor
				// and bucket its elements by destination.
				buckets := make([][]Pair[K, V], k)
				n := 0
				for pi := 0; pi < r.parts; pi++ {
					if pi%k != i {
						continue
					}
					for _, e := range r.materialize(p, ex, pi) {
						d := part(e.Key)
						buckets[d] = append(buckets[d], e)
						n++
					}
				}
				if n > 0 {
					ex.Charge(p, float64(n)) // bucketing scan
				}
				outgoing := make([]Block, 0, k-1)
				for d := 0; d < k; d++ {
					if d == i {
						continue
					}
					outgoing = append(outgoing, Block{
						To:      d,
						Bytes:   bytesPerElem * float64(len(buckets[d])),
						Payload: buckets[d],
					})
				}
				local := buckets[i]
				for _, b := range Exchange(p, ex, ctx.Cluster.Execs, i, name, outgoing) {
					local = append(local, b.Payload.([]Pair[K, V])...)
				}
				out[i] = local
				return nil, 0
			},
		}
	}
	ctx.RunStage(p, name, tasks)
	return Parallelize(ctx, name, out)
}

// ReduceByKey shuffles the RDD so all values of a key are co-located, then
// combines them per key with f. It returns a materialized RDD of one pair
// per key. bytesPerElem sizes the shuffled elements on the wire.
func ReduceByKey[K comparable, V any](p *des.Proc, r *RDD[Pair[K, V]], name string,
	bytesPerElem float64, f func(a, b V) V) *RDD[Pair[K, V]] {

	shuffled := shuffleByKey(p, r, name, bytesPerElem, HashPartitioner[K](r.ctx.NumExecutors()))
	return MapPartitions(shuffled, name+"/combine", func(in []Pair[K, V]) ([]Pair[K, V], float64) {
		acc := map[K]V{}
		order := make([]K, 0, len(in))
		for _, e := range in {
			if v, ok := acc[e.Key]; ok {
				acc[e.Key] = f(v, e.Value)
			} else {
				acc[e.Key] = e.Value
				order = append(order, e.Key)
			}
		}
		out := make([]Pair[K, V], 0, len(acc))
		for _, key := range order {
			out = append(out, Pair[K, V]{Key: key, Value: acc[key]})
		}
		return out, float64(len(in))
	})
}

// GroupByKey shuffles the RDD and gathers all values of each key into one
// slice, preserving arrival order within a key.
func GroupByKey[K comparable, V any](p *des.Proc, r *RDD[Pair[K, V]], name string,
	bytesPerElem float64) *RDD[Pair[K, []V]] {

	shuffled := shuffleByKey(p, r, name, bytesPerElem, HashPartitioner[K](r.ctx.NumExecutors()))
	return MapPartitions(shuffled, name+"/group", func(in []Pair[K, V]) ([]Pair[K, []V], float64) {
		groups := map[K][]V{}
		order := make([]K, 0)
		for _, e := range in {
			if _, ok := groups[e.Key]; !ok {
				order = append(order, e.Key)
			}
			groups[e.Key] = append(groups[e.Key], e.Value)
		}
		out := make([]Pair[K, []V], 0, len(groups))
		for _, key := range order {
			out = append(out, Pair[K, []V]{Key: key, Value: groups[key]})
		}
		return out, float64(len(in))
	})
}

// CountByKey returns the number of elements per key, collected at the
// driver.
func CountByKey[K comparable, V any](p *des.Proc, r *RDD[Pair[K, V]], name string) map[K]int {
	ones := Map(r, name+"/ones", 0, func(e Pair[K, V]) Pair[K, int] {
		return Pair[K, int]{Key: e.Key, Value: 1}
	})
	counted := ReduceByKey(p, ones, name, 16, func(a, b int) int { return a + b })
	out := map[K]int{}
	for _, partData := range Collect(p, counted, 16) {
		for _, e := range partData {
			out[e.Key] += e.Value
		}
	}
	return out
}
