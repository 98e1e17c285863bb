package vec

import "sync"

// Pool recycles dense model-sized buffers across training steps, keyed by
// length. Get and Copy transfer ownership of a buffer to the caller; Put
// transfers it back. A buffer that rides a message changes owner with it:
// the sender acquires, the receiver Puts. The ownership rules are enforced
// by the buflife and vecalias analyzers: a buffer must not be used after
// Put, and must not be Put twice.
//
// The mutex (rather than sync.Pool) is deliberate: buffers are requested
// from offloaded closures on worker threads while the simulation goroutine
// recycles them, the hot sizes are few (model-dimension vectors and their
// range partitions), and a free list the garbage collector never trims keeps
// behaviour deterministic enough to reason about. Nothing caps the list: it
// holds at most the peak number of buffers of each length that were ever out
// at once, because a buffer is only allocated when the list is empty.
// Buffer identity never influences numerics — Get returns all zeros and Copy
// overwrites every element — so the pool is outside the bit-identity
// contract.
type Pool struct {
	mu   sync.Mutex
	free map[int][][]float64
}

// NewPool returns an empty buffer pool.
func NewPool() *Pool {
	return &Pool{free: map[int][][]float64{}}
}

// take pops a recycled buffer of length n, or reports that none is free.
func (p *Pool) take(n int) (b []float64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.free[n]
	if len(list) == 0 {
		return nil, false
	}
	b = list[len(list)-1]
	p.free[n] = list[:len(list)-1]
	return b, true
}

// Get returns a zeroed buffer of length n. Fresh allocations are zero by
// construction; recycled buffers are cleared here — the only point a
// full-model zeroing is actually required.
func (p *Pool) Get(n int) []float64 {
	b, ok := p.take(n)
	if !ok {
		return make([]float64, n)
	}
	clear(b)
	return b
}

// Copy returns a buffer holding a copy of src: Get for a buffer that is
// overwritten at once, so a recycled one skips the clear. It is how a
// message payload is acquired — the sender snapshots its vector, the
// receiver Puts the snapshot once it has consumed it.
func (p *Pool) Copy(src []float64) []float64 {
	b, ok := p.take(len(src))
	if !ok {
		b = make([]float64, len(src))
	}
	copy(b, src)
	return b
}

// Put returns a buffer to the pool. The caller must not retain or use b
// afterwards. Putting nil is a no-op, so callers can unconditionally recycle
// optional buffers.
func (p *Pool) Put(b []float64) {
	if b == nil {
		return
	}
	p.mu.Lock()
	p.free[len(b)] = append(p.free[len(b)], b) //mlstar:nolint vecalias -- Put is the ownership-transfer point: the caller forfeits b
	p.mu.Unlock()
}
