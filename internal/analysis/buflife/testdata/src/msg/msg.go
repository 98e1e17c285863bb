// Corpus for buffers that ride a message (internal/ps): the sender acquires
// a pooled snapshot with Pool.Copy and hands it over inside the payload; the
// receiver owns it from then on and is the one to Put it.
package msg

// Pool mirrors vec.Pool: Copy is the acquire that skips the clear.
type Pool struct{ free [][]float64 }

func (p *Pool) Get(n int) []float64          { return make([]float64, n) }
func (p *Pool) Copy(src []float64) []float64 { return append([]float64(nil), src...) }
func (p *Pool) Put(b []float64)              {}

type reply struct{ vals []float64 }

type server struct {
	pool  *Pool
	model []float64
	last  []float64
}

// Copy is the package-level plain allocation (vec.Copy): not an acquire.
func Copy(w []float64) []float64 { return append([]float64(nil), w...) }

// Clean: the snapshot leaves inside the payload; the sender never Puts it.
func (s *server) send(out chan<- reply) {
	snapshot := s.pool.Copy(s.model)
	out <- reply{vals: snapshot}
}

// Clean: copy the payload out, then hand its buffer back.
func pullInto(p *Pool, in <-chan reply, dst []float64) {
	r := <-in
	vals := r.vals
	copy(dst, vals)
	p.Put(vals)
}

// The received payload is the pool's again after Put, whichever branch
// retired it.
func readAfterRecycle(p *Pool, in <-chan reply, dst []float64, early bool) float64 {
	r := <-in
	vals := r.vals
	if early {
		p.Put(vals)
	}
	copy(dst, vals) // want `use of pooled buffer vals after Put on some path`
	p.Put(vals)     // want `double Put of pooled buffer vals on some path`
	return dst[0]
}

// A buffer from Pool.Copy is pooled like one from Get: parking it in a field
// outlives the receiver's Put.
func (s *server) keepSnapshot(out chan<- reply) {
	snapshot := s.pool.Copy(s.model)
	s.last = snapshot // want `pooled buffer stored into field last outlives its PutVec`
	out <- reply{vals: snapshot}
}

// Clean: the plain copy belongs to whoever holds it.
func (s *server) keepPlainCopy() {
	c := Copy(s.model)
	s.last = c
}
