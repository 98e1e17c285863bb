// Package detrand is the single place in the repository allowed to
// construct random-number generators. Everything downstream of a config
// seed — per-worker jitter, per-step mini-batch selection, data shuffles,
// straggler sampling — derives its stream here, so the answer to "which draws does
// experiment X make at step t on worker r?" lives in one audited file
// instead of being scattered as magic primes across five packages.
//
// The determinism analyzer (internal/analysis/determinism) enforces the
// funnel: direct rand.New / rand.NewSource calls anywhere else in the
// simulated packages fail the lint gate. What feeds a seed is not followed
// statically: a seed derived from map order or the wall clock would show as
// a moved golden.
//
// Compatibility note: the derivation arithmetic below reproduces, bit for
// bit, the ad-hoc formulas the trainers used before this package existed
// (seed + worker*7907, seed + part*2654435761, seed + step*1_000_003 + i).
// Changing any constant re-randomizes every figure under results/; do that
// only together with regenerating the committed artifacts.
//
// Stream (stream.go) is the same generator read a block of raw outputs at a
// time, for the one consumer that draws 8·10⁷ numbers per benchmark
// repetition (the SendGradient trainer's per-step Bernoulli sampler). Its
// contract:
//
//   - Only this package can build one (NewStream; the fields are unexported),
//     so the source under a Stream is always math/rand's own, seeded by
//     math/rand's own Seed — no seeding table is copied here.
//   - Its outputs are, word for word and forever, those of
//     rand.New(rand.NewSource(seed)).Uint64(). The first 607 are read from
//     that source; every later one is computed here with the generator's own
//     recurrence x_n = x_{n−607} + x_{n−273} (mod 2⁶⁴), which is the stream —
//     an additive lagged Fibonacci generator's state is its last 607 outputs
//     — and not an approximation of it.
//   - TestStreamEqualsMathRand pins the equality (10⁶ draws, block sizes
//     that end on both sides of every window boundary) and
//     TestSeedStepEqualsStep the re-seeding of a half-consumed Stream; a
//     math/rand that changed its generator would fail both, as it would
//     re-randomize every figure under results/.
package detrand

import "math/rand"

// Derivation strides. Exported so tests can assert the contract; see the
// compatibility note above before touching them.
const (
	// WorkerStride separates per-worker jitter streams (Petuum, Angel).
	WorkerStride = 7907
	// StepStride separates per-communication-step streams (MLlib
	// mini-batch gradient descent); the worker index is added on top.
	StepStride = 1_000_003
)

// New returns the root generator for a config seed — the only
// un-derived stream. Use the derivation helpers for anything that exists
// per worker or per step.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Worker returns worker r's stream: the per-worker compute-jitter sequence
// of the parameter-server trainers.
func Worker(seed int64, r int) *rand.Rand {
	return New(seed + int64(r)*WorkerStride)
}

// Step returns the stream for communication step t on worker i: the
// per-step mini-batch selection of the SendGradient trainer.
func Step(seed int64, t, i int) *rand.Rand {
	return New(stepSeed(seed, t, i))
}

func stepSeed(seed int64, t, i int) int64 {
	return seed + int64(t)*StepStride + int64(i)
}

// Perm returns a deterministic permutation of [0, n) for the seed — the
// shuffling primitive of the data splitters.
func Perm(seed int64, n int) []int {
	return New(seed).Perm(n)
}
