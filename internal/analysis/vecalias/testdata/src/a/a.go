// Corpus for the vecalias analyzer: received float-slice buffers must not
// escape into results or longer-lived state without a copy, and one buffer
// must not be handed to two sides of a call.
package a

type state struct {
	w []float64
}

var global []float64

func returnsParam(p []float64) []float64 {
	return p // want `returning parameter p aliases the caller's buffer`
}

func returnsReslice(p []float64) []float64 {
	return p[1:3] // want `returning parameter p aliases the caller's buffer`
}

func storesToField(s *state, p []float64) {
	s.w = p // want `storing parameter p without copying lets two owners share one buffer`
}

func storesToGlobal(p []float64) {
	global = p // want `storing parameter p without copying lets two owners share one buffer`
}

func storesToElem(xs [][]float64, p []float64) {
	xs[0] = p // want `storing parameter p without copying lets two owners share one buffer`
}

func appendsParam(xs [][]float64, p []float64) [][]float64 {
	return append(xs, p) // want `appending parameter p stores the caller's buffer into a collection`
}

func exchange(a, b []float64) {
	_, _ = a, b
}

func bothSides(w []float64) {
	exchange(w, w) // want `same buffer w passed twice to one call`
}

type node struct {
	model []float64
}

func bothSidesSelector(n *node) {
	exchange(n.model, n.model) // want `same buffer n\.model passed twice to one call`
}

// Clean: returning a copy transfers ownership.
func returnsCopy(p []float64) []float64 {
	return append([]float64(nil), p...)
}

// Clean: a local alias never outlives the call.
func localAlias(p []float64) float64 {
	q := p
	return q[0]
}

// Clean: distinct buffers on the two sides.
func distinctSides(w, v []float64) {
	exchange(w, v)
}

// Clean: non-float slices are not model buffers.
func returnsInts(p []int) []int {
	return p
}
