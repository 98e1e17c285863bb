// Corpus for the determinism analyzer: global RNG state, RNG construction,
// wall-clock reads, map-order iteration, and raw goroutines are flagged;
// explicitly seeded generators, source-parameterized distributions, and
// ordered iteration are clean.
package a

import (
	"math/rand"
	"time"
)

func globalFloat() float64 {
	return rand.Float64() // want `global rand\.Float64 draws from process-global RNG state`
}

func globalIntn(n int) int {
	return rand.Intn(n) // want `global rand\.Intn draws from process-global RNG state`
}

func globalPerm(n int) []int {
	return rand.Perm(n) // want `global rand\.Perm draws from process-global RNG state`
}

func construct(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want `direct rand\.New: derive seeded streams through internal/detrand` `direct rand\.NewSource: derive seeded streams through internal/detrand`
}

func wallClock() time.Time {
	return time.Now() // want `wall-clock time\.Now in simulated code`
}

func sleeps() {
	time.Sleep(time.Second) // want `wall-clock time\.Sleep in simulated code`
}

func mapOrder(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m { // want `map iteration order is nondeterministic`
		sum += v
	}
	return sum
}

func rawGoroutine(done chan struct{}) {
	go func() { // want `raw goroutine in simulated code runs in wall-clock order`
		close(done)
	}()
}

func rawGoroutineNamed(fn func()) {
	go fn() // want `raw goroutine in simulated code runs in wall-clock order`
}

// Clean: methods on an explicitly seeded generator are exactly what the
// analyzer pushes code toward.
func seeded(rng *rand.Rand) float64 {
	return rng.Float64()
}

// Clean: distributions over an explicitly passed source are deterministic
// given their arguments.
func zipf(rng *rand.Rand) *rand.Zipf {
	return rand.NewZipf(rng, 1.1, 1, 100)
}

// Clean: slices iterate in order.
func sliceOrder(xs []float64) float64 {
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum
}

// Clean: duration arithmetic never reads the wall clock.
func seconds(d time.Duration) float64 {
	return d.Seconds()
}
