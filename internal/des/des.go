// Package des implements a deterministic discrete-event simulation kernel.
//
// A Sim owns a virtual clock and a set of processes. Each process is a
// runtime coroutine (iter.Pull): it runs until it blocks on a simulation
// primitive (Wait, Queue.Get, Resource.Acquire, ...), at which point it
// yields to the kernel, which advances the clock to the next scheduled event
// and resumes the corresponding process. A switch is a direct hand-off
// between the two — no channel, no scheduler round trip — and exactly one of
// kernel and processes runs at any moment. Events at equal times fire in the
// order they were scheduled, so a simulation is fully deterministic: the same
// program and seeds produce the same event trace, clock values, and results.
//
// Blocking, scheduling and dispatching an event allocate nothing: the event
// heap is a typed slice, a block reason is a small value that only Blocked
// formats, and a blocked Queue.Get receives through a slot in its Proc.
//
// The kernel is the substrate for the simulated cluster (package simnet),
// the Spark-like execution engine (package engine), and the parameter-server
// runtime (package ps).
package des

import (
	"fmt"
	"iter"
	"math"
	"runtime/debug"
	"sort"
	"strconv"
)

// killedPanic is the sentinel panic value used to unwind a process when the
// simulation is shut down while the process is still blocked.
type killedPanic struct{}

// Sim is a discrete-event simulation instance. It is not safe for concurrent
// use; all interaction must happen from the goroutine that calls Run (before
// Run, to spawn the initial processes) or from within process functions.
type Sim struct {
	now    float64
	events []event // binary min-heap ordered by event.before
	seq    uint64
	procs  []*Proc // unfinished processes, unordered; Proc.slot is the index
	nextID int
	closed bool
	fault  *procPanic // panic captured from a process, re-raised by the kernel
}

// procPanic records a panic that escaped a process function.
type procPanic struct {
	proc  string
	value any
	stack []byte
}

// New returns an empty simulation with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// event is a scheduled wake-up for a process. A blocked process has exactly
// one: every primitive blocks on a single wake-up source.
type event struct {
	at   float64
	seq  uint64
	proc *Proc
}

// before orders events by time, then by scheduling order.
func (e event) before(o event) bool {
	//mlstar:nolint floateq -- exact compare intentional: equal timestamps fall through to the seq tie-break
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (s *Sim) schedule(at float64, p *Proc) {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling event in the past: %g < %g", at, s.now))
	}
	s.seq++
	e := event{at: at, seq: s.seq, proc: p}
	// Sift up from a new last slot.
	h := append(s.events, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	s.events = h
}

// popEvent removes and returns the earliest event.
func (s *Sim) popEvent() event {
	h := s.events
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h[n] = event{} // do not retain the process through the vacated slot
	h = h[:n]
	s.events = h
	if n == 0 {
		return top
	}
	// Sift the former last event down from the root.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
	return top
}

// blockKind says which primitive a process is blocked on.
type blockKind uint8

const (
	notBlocked blockKind = iota
	blockedWait
	blockedRecv
	blockedBarrier
	blockedSignal
)

// blockReason describes what a process is blocked on. It is recorded on
// every block and rendered only by Sim.Blocked, so the hot path never formats
// a string.
type blockReason struct {
	kind            blockKind
	name            string  // queue, barrier or signal
	t               float64 // wake-up time
	gen, arrived, n int     // barrier generation and head count
}

func (r blockReason) String() string {
	switch r.kind {
	case blockedWait:
		return fmt.Sprintf("wait until t=%.6f", r.t)
	case blockedRecv:
		return fmt.Sprintf("recv on queue %q", r.name)
	case blockedBarrier:
		return fmt.Sprintf("barrier %q gen %d (%d/%d arrived)", r.name, r.gen, r.arrived, r.n)
	case blockedSignal:
		return fmt.Sprintf("signal %q", r.name)
	}
	return ""
}

// Proc is a simulation process. A Proc handle is passed to the process
// function and is required by every blocking primitive, which keeps the
// "who is blocking" bookkeeping explicit and cheap.
type Proc struct {
	sim   *Sim
	name  string
	id    int
	ident string // "name#id", built by the first Ident call
	slot  int    // index in sim.procs while unfinished

	// The coroutine: the kernel resumes the process with next and unwinds
	// it with stop; the process returns control with yield, which reports
	// false once stop has been called.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	done    bool
	blocked blockReason // what the process is blocked on; zero while it runs

	// Receive slot of the Queue.Get the process is blocked in:
	// Put fills it when it hands a value straight to this waiter.
	recv     any
	recvFull bool
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// ID returns the process's spawn id, unique within its Sim and assigned in
// spawn order. Names alone need not be unique (per-collective sender forks
// reuse theirs), so "name#id" is the canonical process identity of the
// causal trace.
func (p *Proc) ID() int { return p.id }

// Ident returns that canonical identity, "name#id". It is built on the first
// call and kept, so a telemetry hook that stamps every event of a process
// with it pays for one string per process, not one per event; a run without
// a telemetry sink never builds it.
func (p *Proc) Ident() string {
	if p.ident == "" {
		p.ident = p.name + "#" + strconv.Itoa(p.id)
	}
	return p.ident
}

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.sim.now }

// Spawn creates a process that starts at the current virtual time. The
// process function runs inside the simulation; it must block only through
// simulation primitives, never through real channels or time.Sleep.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	if s.closed {
		panic("des: Spawn on a closed simulation")
	}
	p := &Proc{sim: s, name: name, id: s.nextID, slot: len(s.procs)}
	s.nextID++
	s.procs = append(s.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.done = true
			if r := recover(); r != nil {
				if _, killed := r.(killedPanic); !killed {
					// Real bug in a process function: capture it here,
					// where the stack still shows it, for the kernel to
					// re-raise on the goroutine running Run.
					s.fault = &procPanic{proc: p.name, value: r, stack: debug.Stack()}
				}
			}
		}()
		fn(p)
	})
	s.schedule(s.now, p)
	return p
}

// switchTo hands control to p and returns when it blocks or exits. A panic
// that escaped the process function is re-raised here, on the goroutine that
// called Run, wrapped with the process name and stack.
func (s *Sim) switchTo(p *Proc) {
	p.blocked = blockReason{}
	p.next()
	if p.done {
		s.forget(p)
	}
	if f := s.fault; f != nil {
		s.fault = nil
		panic(fmt.Sprintf("des: process %q panicked: %v\n%s", f.proc, f.value, f.stack))
	}
}

// forget drops a finished process from procs, so a long simulation does not
// keep every task and forked sender it ever ran.
func (s *Sim) forget(p *Proc) {
	last := len(s.procs) - 1
	moved := s.procs[last]
	s.procs[p.slot] = moved
	moved.slot = p.slot
	s.procs[last] = nil
	s.procs = s.procs[:last]
}

// block returns control to the kernel and waits to be resumed. reason is
// what deadlock reports show.
func (p *Proc) block(reason blockReason) {
	p.blocked = reason
	if !p.yield(struct{}{}) {
		panic(killedPanic{})
	}
}

// Run executes the simulation until no scheduled events remain, then shuts
// down any processes still blocked (e.g. servers waiting on request queues)
// and returns the final virtual time.
func (s *Sim) Run() float64 {
	if s.closed {
		panic("des: Run on a closed simulation")
	}
	for len(s.events) > 0 {
		ev := s.popEvent()
		if ev.at < s.now {
			panic("des: clock moved backwards")
		}
		s.now = ev.at
		s.switchTo(ev.proc)
	}
	s.shutdown()
	return s.now
}

// Blocked reports the processes that are blocked right now, with the
// primitive each is blocked on. After Run it is empty; it is mainly useful
// from within a watchdog process when debugging a distributed deadlock.
func (s *Sim) Blocked() []string {
	var out []string
	for _, p := range s.procs {
		if p.blocked.kind != notBlocked {
			out = append(out, fmt.Sprintf("%s: %s", p.name, p.blocked))
		}
	}
	sort.Strings(out)
	return out
}

// shutdown unwinds every process still blocked, in spawn order, so their
// deferred functions run and their coroutines exit.
func (s *Sim) shutdown() {
	if s.closed {
		return
	}
	s.closed = true
	left := s.procs
	s.procs = nil
	sort.Slice(left, func(i, j int) bool { return left[i].id < left[j].id })
	for _, p := range left {
		p.stop()
	}
}

// Wait blocks the process for d seconds of virtual time. Negative or NaN
// durations panic: they always indicate a cost-model bug.
func (p *Proc) Wait(d float64) {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("des: Wait(%g) from %s", d, p.name))
	}
	p.WaitUntil(p.sim.now + d)
}

// WaitUntil blocks the process until virtual time t. If t is in the past the
// process continues immediately (no time passes, but other processes
// scheduled earlier still run first at the current instant).
func (p *Proc) WaitUntil(t float64) {
	if t < p.sim.now {
		t = p.sim.now
	}
	p.sim.schedule(t, p)
	p.block(blockReason{kind: blockedWait, t: t})
}

// Yield lets every other process scheduled at the current instant run before
// this one continues. Equivalent to Wait(0).
func (p *Proc) Yield() { p.Wait(0) }
