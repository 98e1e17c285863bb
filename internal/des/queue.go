package des

import "fmt"

// Queue is an unbounded FIFO mailbox for values of type T. Put never blocks;
// Get blocks the calling process until a value is available. When several
// processes are blocked on Get, values are handed out in the order the
// getters arrived (FIFO fairness), which keeps simulations deterministic.
type Queue[T any] struct {
	sim     *Sim
	name    string
	items   fifo[T]
	waiters fifo[*Proc] // blocked getters; each receives through its Proc's slot
}

// fifo is a slice-backed first-in-first-out list. A pop zeroes the slot it
// vacates, so a delivered value (a message and its model-partition payload)
// is not kept reachable by the backing array, and the array is reused from
// its start whenever the list drains, so steady-state traffic allocates
// nothing.
type fifo[E any] struct {
	buf  []E
	head int // buf[head:] are the live elements
}

func (f *fifo[E]) len() int { return len(f.buf) - f.head }

func (f *fifo[E]) push(e E) {
	if f.head > 0 && len(f.buf) == cap(f.buf) && 2*f.head >= len(f.buf) {
		// Full, and at least half of it is dead prefix: slide the live
		// elements down rather than grow. Each slide is paid for by the
		// pops that made the prefix.
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, e)
}

func (f *fifo[E]) pop() E {
	var zero E
	e := f.buf[f.head]
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return e
}

// NewQueue returns an empty mailbox bound to sim. The name appears in
// deadlock reports.
func NewQueue[T any](sim *Sim, name string) *Queue[T] {
	return &Queue[T]{sim: sim, name: name}
}

// Put appends v to the queue. If a process is blocked on Get, the value is
// assigned to the longest-waiting getter, which is woken at the current
// virtual time. Put may be called from any process or before Run.
func (q *Queue[T]) Put(v T) {
	for q.waiters.len() > 0 {
		w := q.waiters.pop()
		if w.done {
			continue
		}
		w.recv, w.recvFull = v, true
		q.sim.schedule(q.sim.now, w)
		return
	}
	q.items.push(v)
}

// Get removes and returns the oldest value in the queue, blocking p until
// one is available. Retrieval itself consumes no virtual time.
func (q *Queue[T]) Get(p *Proc) T {
	if v, ok := q.TryGet(); ok {
		return v
	}
	q.waiters.push(p)
	p.block(blockReason{kind: blockedRecv, name: q.name})
	if !p.recvFull {
		panic(fmt.Sprintf("des: process %s woken on queue %q without a value", p.name, q.name))
	}
	v, _ := p.recv.(T) // a nil interface value of T comes back as the zero T
	p.recv, p.recvFull = nil, false
	return v
}

// TryGet removes and returns the oldest value without blocking. The second
// result reports whether a value was available.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}

// GetN blocks until n values have been received and returns them in arrival
// order.
func (q *Queue[T]) GetN(p *Proc, n int) []T {
	out := make([]T, 0, n)
	for len(out) < n {
		out = append(out, q.Get(p))
	}
	return out
}
