package des

import "fmt"

// Resource models a FIFO single-server resource such as a network link or a
// disk: requests are served one at a time, in arrival order, each occupying
// the resource for its service time. Because processes arrive in event
// order, the server can be modelled analytically with a single "free at"
// timestamp, which makes Acquire O(1).
type Resource struct {
	sim    *Sim
	name   string
	freeAt float64
	busy   float64 // total busy time, for utilization accounting
}

// NewResource returns an idle resource bound to sim.
func NewResource(sim *Sim, name string) *Resource {
	return &Resource{sim: sim, name: name}
}

// Acquire blocks p until the resource has served this request, which takes
// service seconds once all earlier requests have been served. It returns the
// interval [start, end) during which the resource worked on this request,
// which callers record in activity traces.
func (r *Resource) Acquire(p *Proc, service float64) (start, end float64) {
	if service < 0 {
		panic(fmt.Sprintf("des: Acquire(%g) on %q", service, r.name))
	}
	start = r.sim.now
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + service
	r.freeAt = end
	r.busy += service
	p.WaitUntil(end)
	return start, end
}

// Reserve books service time on the resource without blocking the caller:
// it returns the interval the resource will spend on the request. It is used
// when the requester hands off work (e.g. a NIC pushing bytes onto a wire)
// and does not itself need to wait for completion.
func (r *Resource) Reserve(service float64) (start, end float64) {
	if service < 0 {
		panic(fmt.Sprintf("des: Reserve(%g) on %q", service, r.name))
	}
	start = r.sim.now
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + service
	r.freeAt = end
	r.busy += service
	return start, end
}

// ReserveAt behaves like Reserve but the request arrives at time at (>= now),
// e.g. a message that reaches a receiving NIC after a propagation delay.
func (r *Resource) ReserveAt(at, service float64) (start, end float64) {
	if service < 0 {
		panic(fmt.Sprintf("des: ReserveAt(%g) on %q", service, r.name))
	}
	if at < r.sim.now {
		at = r.sim.now
	}
	start = at
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + service
	r.freeAt = end
	r.busy += service
	return start, end
}

// BusyTime returns the cumulative time the resource has spent serving
// requests (including time booked in the future by Reserve).
func (r *Resource) BusyTime() float64 { return r.busy }
