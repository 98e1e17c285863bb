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

// ---- pooled-buffer ownership (vec.Pool / engine.Context contract) ----

type pool struct{}

func (pool) Get(n int) []float64          { return make([]float64, n) }
func (pool) Copy(src []float64) []float64 { return append([]float64(nil), src...) }
func (pool) Put(b []float64)              {}
func (pool) PutVec(b []float64)           {}

func useAfterPut(pl pool) float64 {
	b := pl.Get(4)
	pl.Put(b)
	return b[0] // want `use of pooled buffer b after Put`
}

func doublePut(pl pool) {
	b := pl.Get(4)
	pl.Put(b)
	pl.Put(b) // want `double Put of pooled buffer b`
}

func useAfterPutVec(pl pool) {
	b := pl.Get(4)
	pl.PutVec(b)
	_ = b[1] // want `use of pooled buffer b after Put`
}

// Clean: rebinding makes the identifier a live value again.
func putThenRebind(pl pool) float64 {
	b := pl.Get(4)
	pl.Put(b)
	b = pl.Get(8)
	return b[0]
}

// Clean: a conditional Put inside a nested block does not retire the buffer
// for the rest of the outer block.
func conditionalPut(pl pool, cond bool) float64 {
	b := pl.Get(4)
	if cond {
		pl.Put(b)
		b = pl.Get(4)
	}
	return b[0]
}

// Clean: Put as the final use.
func putLast(pl pool) {
	b := pl.Get(4)
	b[0] = 1
	pl.Put(b)
}

// ---- buffers that ride a message (internal/ps) ----

type chunkMsg struct{ vals []float64 }

type inbox struct{ last []float64 }

// Clean: Pool.Copy acquires a new buffer like Get, so a pooled copy of a
// parameter shares nothing with the caller — it may be stored, or sent.
func pushCopies(pl pool, ib *inbox, delta []float64) chunkMsg {
	chunk := pl.Copy(delta[1:3])
	ib.last = pl.Copy(delta)
	return chunkMsg{vals: chunk}
}

// Clean: Copy rebinds a retired identifier to a live buffer, as Get does.
func putThenCopy(pl pool, src []float64) float64 {
	b := pl.Get(4)
	pl.Put(b)
	b = pl.Copy(src)
	return b[0]
}

// A received payload is the receiver's only until it Puts it.
func recvThenRead(pl pool, m chunkMsg, dst []float64) float64 {
	vals := m.vals
	copy(dst, vals)
	pl.Put(vals)
	return vals[0] // want `use of pooled buffer vals after Put`
}
