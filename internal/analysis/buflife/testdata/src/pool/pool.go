// Corpus of straight-line pool lifetimes: a Put, PutVec or a second Put in
// the same statement list as the use. These are the simplest cases of the
// flow-sensitive check, kept beside its harder ones.
package pool

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

type chunkMsg struct{ vals []float64 }

type inbox struct{ last []float64 }

// Pool.Copy acquires a new buffer like Get, so a pooled copy of a parameter
// shares nothing with the caller and may be sent. Stored into a field, it
// outlives the Put that will eventually retire it.
func pushCopies(pl pool, ib *inbox, delta []float64) chunkMsg {
	chunk := pl.Copy(delta[1:3])
	ib.last = pl.Copy(delta) // want `pooled buffer stored into field last outlives its PutVec`
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
