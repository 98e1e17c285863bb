package des

import "fmt"

// Barrier synchronizes a fixed set of n processes, the primitive underlying
// BSP supersteps. Arrive blocks until all n participants of the current
// generation have arrived; everyone is then released at the arrival time of
// the slowest participant. The barrier is reusable: generation g+1 starts as
// soon as generation g has been released.
type Barrier struct {
	sim      *Sim
	name     string
	n        int
	arrived  int
	gen      int
	waiting  []*Proc
	arriveAt []float64       // arrival time of each waiter, parallel to waiting
	obs      BarrierObserver // release notification; nil when unobserved
}

// BarrierObserver is called once per participant when a generation releases:
// proc arrived at arriveAt and resumes at releaseAt (the last arrival's
// time). The callback runs inside the last arriver's process context at the
// release instant and must only observe — it is the hook the causal trace
// uses to record who the slowest participant was, and it may not block or
// advance the clock.
type BarrierObserver func(proc *Proc, gen int, arriveAt, releaseAt float64)

// Observe installs the release observer (nil uninstalls). Observing a
// barrier changes nothing about its timing or release order.
func (b *Barrier) Observe(fn BarrierObserver) { b.obs = fn }

// NewBarrier returns a barrier for n participants.
func NewBarrier(sim *Sim, name string, n int) *Barrier {
	if n <= 0 {
		panic(fmt.Sprintf("des: NewBarrier(%d) %q", n, name))
	}
	return &Barrier{sim: sim, name: name, n: n}
}

// Arrive registers p at the barrier and blocks until the current generation
// completes. It returns the generation number that was completed, which
// callers can use to detect missed supersteps.
func (b *Barrier) Arrive(p *Proc) int {
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		// Last arrival: release everyone at the current time.
		b.arrived = 0
		b.gen++
		for _, w := range b.waiting {
			if !w.done {
				b.sim.schedule(b.sim.now, w)
			}
		}
		if b.obs != nil {
			for i, w := range b.waiting {
				b.obs(w, gen, b.arriveAt[i], b.sim.now)
			}
			b.obs(p, gen, b.sim.now, b.sim.now)
		}
		b.waiting = b.waiting[:0]
		b.arriveAt = b.arriveAt[:0]
		return gen
	}
	b.waiting = append(b.waiting, p)
	b.arriveAt = append(b.arriveAt, b.sim.now)
	p.block(blockReason{kind: blockedBarrier, name: b.name, gen: gen, arrived: b.arrived, n: b.n})
	return gen
}

// Signal is a one-shot broadcast event: any number of processes can Await it
// and are all released when Fire is called. Await after Fire returns
// immediately.
type Signal struct {
	sim     *Sim
	name    string
	fired   bool
	waiting []*Proc
}

// NewSignal returns an unfired signal.
func NewSignal(sim *Sim, name string) *Signal {
	return &Signal{sim: sim, name: name}
}

// Fire releases all current and future waiters. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.waiting {
		if !w.done {
			s.sim.schedule(s.sim.now, w)
		}
	}
	s.waiting = nil
}

// Await blocks p until the signal fires.
func (s *Signal) Await(p *Proc) {
	if s.fired {
		return
	}
	s.waiting = append(s.waiting, p)
	p.block(blockReason{kind: blockedSignal, name: s.name})
}
