// Package par is the deterministic compute-offload pool: it executes pure
// numeric closures on real OS threads while the discrete-event kernel in
// package des keeps advancing virtual time on its single logical thread.
//
// The contract that keeps every CSV bit-for-bit identical to a sequential
// run is split between this package and its callers:
//
//   - A submitted closure must be PURE with respect to the simulation: it
//     may read inputs no concurrently-runnable process writes, and write
//     only buffers it owns. It must not touch the des kernel, simnet, or
//     any virtual clock — those are serialized on the simulation goroutine.
//   - The caller charges the closure's virtual-time cost at exactly the
//     point the sequential code would have computed inline, and calls
//     Handle.Join before any simulation-visible use of the closure's
//     outputs. Virtual time therefore evolves identically whether the
//     closure ran on a worker thread or inline.
//   - Join establishes a happens-before edge from the closure's writes to
//     the joining process (via channel close), so offloaded runs stay clean
//     under the race detector.
//
// Three kinds of closure are submitted today. A task's numeric body
// (engine Task.Pure, Node.ComputeAsyncKind, Executor.ChargeAsync) reads the
// step's model and its partition and writes the task's own buffers. A
// collective's fold or decode (allreduce) writes a disjoint range of a
// vector its executor owns. The objective evaluation of train.Evaluator
// reads only the evaluator's own snapshot of the model (the caller's model
// itself when it is joined before the caller gets control back) and the
// immutable evaluation set, and writes one float — its result. It has no virtual-time
// charge (evaluation is instrumentation), so no clock pins its join: the
// evaluator joins it at the next evaluation or at the end of the run, and at
// once when a stop target or a telemetry sink reads the value at that step.
//
// When the pool is disabled — explicitly via Configure(false, 0), or
// implicitly because GOMAXPROCS == 1 — Go returns a lazy handle and the
// closure runs inline on the first Join, on the same goroutine and at the
// same program point where the pre-offload sequential code ran it. A
// single-threaded run is therefore not merely bit-identical but takes the
// very same execution path as the old engine.
package par

import (
	"runtime"
	"sync/atomic"
)

// state is the pool configuration. It is immutable once published; Configure
// swaps in a fresh one atomically so closures in flight keep the semaphore
// they started with.
type state struct {
	enabled bool
	sem     chan struct{}
}

var cur atomic.Pointer[state]

func init() { Configure(true, 0) }

// Configure enables or disables offload and sizes the worker pool
// (workers <= 0 means GOMAXPROCS). Offload is forced off when GOMAXPROCS is
// 1: with a single schedulable thread the pool could only add overhead, and
// the contract promises the exact sequential path. The package's init calls
// Configure(true, 0) and no CLI changes it; tests call Configure(false, 0)
// to run the inline path on a multi-core host. Trainers read the
// configuration at submit time, so call it before starting a run, not
// during one.
func Configure(on bool, workers int) {
	if runtime.GOMAXPROCS(0) == 1 {
		on = false
	}
	publish(on, workers)
}

// ForceEnable turns the pool on with the given worker count even when
// GOMAXPROCS == 1. It exists for tests: the bit-identity and race suites
// must exercise the concurrent path — real goroutines, real joins — on
// single-CPU machines too.
func ForceEnable(workers int) { publish(true, workers) }

func publish(on bool, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cur.Store(&state{enabled: on, sem: make(chan struct{}, workers)})
}

// Handle is a submitted closure's join point. A Handle may be joined more
// than once (speculative task copies join the same computation); every Join
// returns the same work value.
type Handle struct {
	done chan struct{} // closed when the closure has finished (nil for lazy handles)
	fn   func() float64
	ran  bool // lazy handle: fn already executed
	work float64
	pan  any
	bad  bool // closure panicked; re-raise on Join
}

// Go submits a pure closure returning its virtual-time work. With the pool
// enabled the closure starts immediately on a worker thread; otherwise the
// returned handle runs it inline on first Join.
func Go(fn func() float64) *Handle {
	st := cur.Load()
	if !st.enabled {
		return &Handle{fn: fn}
	}
	h := &Handle{done: make(chan struct{})}
	go func() {
		st.sem <- struct{}{}
		defer func() {
			<-st.sem
			close(h.done)
		}()
		h.run(fn)
	}()
	return h
}

// Do is Go for closures with no work result (the caller computed the charge
// structurally, without running the numbers).
func Do(fn func()) *Handle {
	return Go(func() float64 { fn(); return 0 })
}

// run executes fn, capturing a panic for re-raising at Join — the des
// kernel's panic-propagation contract must hold whether or not the closure
// ran on a worker thread.
func (h *Handle) run(fn func() float64) {
	defer func() {
		if r := recover(); r != nil {
			h.pan = r
			h.bad = true
		}
	}()
	h.work = fn()
}

// Join blocks until the closure has finished and returns its work value,
// re-raising the closure's panic if it had one. Joining an already-joined
// handle is a no-op returning the same value; DES serialization makes the
// lazy (disabled-pool) path safe without locks.
func (h *Handle) Join() float64 {
	if h.done != nil {
		<-h.done
	} else if !h.ran {
		h.ran = true
		h.run(h.fn)
		h.fn = nil
	}
	if h.bad {
		panic(h.pan)
	}
	return h.work
}
