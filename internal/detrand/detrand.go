// Package detrand is the single place in the repository allowed to
// construct random-number generators. Everything downstream of a config
// seed — per-worker jitter, per-partition sampling, per-step mini-batch
// selection — derives its stream here, so the answer to "which draws does
// experiment X make at step t on worker r?" lives in one audited file
// instead of being scattered as magic primes across five packages.
//
// The determinism analyzer (internal/analysis/determinism) enforces the
// funnel: direct rand.New / rand.NewSource calls anywhere else in the
// simulated packages fail the lint gate.
//
// Compatibility note: the derivation arithmetic below reproduces, bit for
// bit, the ad-hoc formulas the trainers used before this package existed
// (seed + worker*7907, seed + part*2654435761, seed + step*1_000_003 + i).
// Changing any constant re-randomizes every figure under results/; do that
// only together with regenerating the committed artifacts.
package detrand

import "math/rand"

// Derivation strides. Exported so tests can assert the contract; see the
// compatibility note above before touching them.
const (
	// WorkerStride separates per-worker jitter streams (Petuum, Angel).
	WorkerStride = 7907
	// PartitionStride separates per-partition sampling streams
	// (engine.Sample); 2654435761 is the 32-bit Knuth multiplier.
	PartitionStride = 2654435761
	// StepStride separates per-communication-step streams (MLlib
	// mini-batch gradient descent); the worker index is added on top.
	StepStride = 1_000_003
)

// New returns the root generator for a config seed — the only
// un-derived stream. Use the derivation helpers for anything that exists
// per worker, per partition, or per step.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Worker returns worker r's stream: the per-worker compute-jitter sequence
// of the parameter-server trainers.
func Worker(seed int64, r int) *rand.Rand {
	return New(seed + int64(r)*WorkerStride)
}

// Partition returns partition part's stream: the per-partition Bernoulli
// sampling sequence of engine.Sample.
func Partition(seed int64, part int) *rand.Rand {
	return New(seed + int64(part)*PartitionStride)
}

// Step returns the stream for communication step t on worker i: the
// per-step mini-batch selection of the SendGradient trainer.
func Step(seed int64, t, i int) *rand.Rand {
	return New(stepSeed(seed, t, i))
}

// ReseedStep rewinds rng, in place, to the start of the stream Step(seed, t,
// i) returns: a worker that draws a fresh stream every step keeps one
// generator for the run instead of allocating a 4.9 KB source per step.
// Seeding an existing generator and building a new one from the same seed
// yield the same sequence bit for bit (math/rand's contract, and this
// package's test).
func ReseedStep(rng *rand.Rand, seed int64, t, i int) {
	rng.Seed(stepSeed(seed, t, i))
}

func stepSeed(seed int64, t, i int) int64 {
	return seed + int64(t)*StepStride + int64(i)
}

// Perm returns a deterministic permutation of [0, n) for the seed — the
// shuffling primitive of the data splitters.
func Perm(seed int64, n int) []int {
	return New(seed).Perm(n)
}
