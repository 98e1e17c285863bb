package engine

// Accumulator is Spark's write-only shared counter: tasks add to it, only
// the driver reads the total. Task attempts (originals and speculative
// copies) record their contributions separately; when the driver accepts
// the first result for a task, that attempt's contributions are committed
// and the losing attempt's are discarded — exactly Spark's rule that only
// the winning attempt updates accumulators.
type Accumulator struct {
	name      string
	committed float64
	pending   map[attemptKey]float64
}

type attemptKey struct {
	stage   int
	index   int
	attempt int
}

// NewAccumulator registers a named accumulator on the context; its pending
// contributions are committed by RunStage as results are accepted.
func NewAccumulator(ctx *Context, name string) *Accumulator {
	a := &Accumulator{name: name, pending: map[attemptKey]float64{}}
	ctx.accums = append(ctx.accums, a)
	return a
}

// Add records v from the currently executing task attempt.
func (a *Accumulator) Add(ex *Executor, v float64) {
	a.pending[attemptKey{stage: ex.curStage, index: ex.curTask, attempt: ex.curAttempt}] += v
}

// commit moves the winning attempt's contribution into the total.
func (a *Accumulator) commit(stage, index, attempt int) {
	key := attemptKey{stage: stage, index: index, attempt: attempt}
	a.committed += a.pending[key]
	delete(a.pending, key)
}

// Value returns the committed total. Driver-side only.
func (a *Accumulator) Value() float64 { return a.committed }
