// Corpus for the determinism analyzer's taint half: values derived from map
// iteration order and the wall clock flowing into float accumulations,
// simulation charges, and shared state. Every source carries a scoped
// //mlstar:nolint directive, which silences the source alone: the analyzer
// still follows the tainted VALUES to their sinks, including the fold in a
// suppressed range's body and across function boundaries.
package flow

import (
	"sort"
	"time"
)

// ComputeKind is a charge primitive declared elsewhere (bodyless, resolved
// outside the graph and classified by its unique name).
func ComputeKind(kind string, work float64)

type state struct{ work float64 }

// A fold directly inside a map range: the value is order-tainted, float
// addition is not associative. The diagnostic carries the sort-before-fold
// suggested fix.
func foldInMapRange(m map[string]float64) float64 {
	var s float64
	for _, v := range m { //mlstar:nolint determinism -- repaired by the sort-before-fold fix
		s += v // want `float accumulation folds map-iteration-order-dependent values`
	}
	return s
}

// values collects map values in iteration order. Its own range is
// suppressed, but the returned slice is order-tainted — recorded in its
// summary's return taint.
func values(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m { //mlstar:nolint determinism -- collection helper; callers must fold in canonical order
		out = append(out, v)
	}
	return out
}

// The caller's fold ranges over a plain slice — nothing here for the
// syntactic determinism check — but the slice came from values(), so the
// fold is order-dependent. Only the interprocedural taint sees it.
func foldCollected(m map[string]float64) float64 {
	var s float64
	for _, v := range values(m) {
		s += v // want `float accumulation folds map-iteration-order-dependent values`
	}
	return s
}

// wallClockWork returns a wall-clock-derived quantity (clock taint in its
// summary's return taint).
func wallClockWork() float64 {
	start := time.Now()                //mlstar:nolint determinism -- host-side profiling only
	return time.Since(start).Seconds() //mlstar:nolint determinism -- host-side profiling only
}

// chargeScaled charges its parameter: its summary's parameter sink makes
// every call site with a tainted argument a finding.
func chargeScaled(work float64) {
	ComputeKind("grad", work*1.5)
}

// The taint crosses two function boundaries: clock taint out of
// wallClockWork's return, into chargeScaled's parameter, onto the charge.
func chargeElapsed() {
	e := wallClockWork()
	chargeScaled(e) // want `wall-clock-derived value reaches a determinism-sensitive sink inside chargeScaled`
}

// A tainted value handed directly to a charge primitive.
func chargeMapOrder(m map[string]float64) {
	var w float64
	for _, v := range m { //mlstar:nolint determinism -- repaired by the sort-before-fold fix
		w += v // want `float accumulation folds map-iteration-order-dependent values`
	}
	ComputeKind("fold", w) // want `map-iteration-order-dependent value flows into simulation charge ComputeKind`
}

// Order-tainted data stored into longer-lived state.
func storeMapDerived(st *state, m map[int]float64) {
	var total float64
	for _, v := range m { //mlstar:nolint determinism -- repaired by the sort-before-fold fix
		total += v // want `float accumulation folds map-iteration-order-dependent values`
	}
	st.work = total // want `map-iteration-order-dependent value stored into field work`
}

// The canonical repair — collect, sort, iterate — is clean: the in-place
// sort launders the order taint. This is exactly the code the suggested
// fix generates, so the fix must not re-trigger the analyzer.
func foldSorted(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m { //mlstar:nolint determinism -- collect loop, sorted before the fold below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var s float64
	for _, k := range keys {
		s += m[k]
	}
	return s
}

// A fold accepted as order-insensitive by an audit takes a directive of its
// own: the one on the range silences the range alone.
func acceptedFold(m map[string]float64) float64 {
	var s float64
	for _, v := range m { //mlstar:nolint determinism -- audited: values are all equal by construction
		s += v //mlstar:nolint determinism -- audited: values are all equal by construction
	}
	return s
}
