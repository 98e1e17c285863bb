// Corpus for the buflife analyzer: flow-sensitive pooled-buffer lifetimes.
// No finding here lies in the same statement list as its Put: the Puts
// below hide inside nested branches, behind defer, or inside callees, and
// the escapes involve locals rather than parameters.
package a

// Ctx mirrors engine.Context's pool surface; the analyzer recognizes
// Get/GetVec and Put/PutVec by name and float-slice type.
type Ctx struct{ depth int }

func (c *Ctx) GetVec(n int) []float64 { return make([]float64, n) }
func (c *Ctx) PutVec(b []float64)     {}

type holder struct{ buf []float64 }

func work(xs []float64)  {}
func scale(xs []float64) { xs[0] *= 2 }

// release retires its parameter: callers learn this from its summary, not
// from any syntax at the call site.
func release(ctx *Ctx, b []float64) {
	ctx.PutVec(b)
}

// acquire returns a pooled buffer: ownership transfers to the caller (the
// agg.go contract), recorded in its summary.
func acquire(ctx *Ctx, n int) []float64 {
	return ctx.GetVec(n)
}

// A Put inside a branch retires the buffer on that path only; the
// flow-sensitive merge still catches the later use and the later Put.
func useAfterConditionalPut(ctx *Ctx, cond bool) {
	b := ctx.GetVec(8)
	if cond {
		ctx.PutVec(b)
	}
	b[0] = 1      // want `use of pooled buffer b after Put on some path`
	ctx.PutVec(b) // want `double Put of pooled buffer b on some path`
}

// The deferred Put runs at exit on every path — after the explicit Put.
func deferredDoublePut(ctx *Ctx) {
	b := ctx.GetVec(4)
	defer ctx.PutVec(b) // want `double Put of pooled buffer b on some path`
	work(b)
	ctx.PutVec(b)
}

// The Put happens inside release: only its summary reveals that b is dead
// at the scale call.
func useAfterHelperPut(ctx *Ctx) {
	b := ctx.GetVec(4)
	release(ctx, b)
	scale(b) // want `use of pooled buffer b after Put on some path`
}

// A closure created after a conditional Put captures recycled memory.
func captureAfterConditionalPut(ctx *Ctx, cond bool) func() float64 {
	b := ctx.GetVec(4)
	if cond {
		ctx.PutVec(b)
	}
	return func() float64 { return b[0] } // want `closure captures pooled buffer b after Put`
}

// Storing a live pooled local into a field outlives the eventual Put.
func escapeToField(ctx *Ctx, h *holder) {
	b := ctx.GetVec(8)
	h.buf = b // want `pooled buffer stored into field buf outlives its PutVec`
	ctx.PutVec(b)
}

// The buffer is pooled only via acquire's summary.
func escapeReturned(ctx *Ctx, h *holder) {
	b := acquire(ctx, 4)
	h.buf = b // want `pooled buffer stored into field buf outlives its PutVec`
	ctx.PutVec(b)
}

// The SVRG ownership relay: parking pooled buffers in a local slice between
// closures is legal, and each is Put exactly once.
func relayViaSlice(ctx *Ctx) {
	partials := make([][]float64, 2)
	for i := range partials {
		p := ctx.GetVec(4)
		partials[i] = p
	}
	for _, p := range partials {
		ctx.PutVec(p)
	}
}

// Returning a pooled buffer transfers ownership: legal, no finding.
func transferOut(ctx *Ctx) []float64 {
	out := ctx.GetVec(4)
	out[0] = 1
	return out
}

// A scoped directive naming the analyzer suppresses the escape finding.
func sharedReadOnly(ctx *Ctx, h *holder) {
	b := ctx.GetVec(4)
	h.buf = b //mlstar:nolint buflife -- audited: read-only view dropped before the pool reuses it
	ctx.PutVec(b)
}
