// Package c holds the leaf helpers that b's helpers call: a finding of a
// that rests on c reaches it only through b.
package c

import "mllibstar/internal/obs"

// Trace reaches telemetry.
func Trace() { obs.Note("c") }

// Pool stands in for the engine's vector pool.
type Pool struct{}

// GetVec lends a buffer.
func (p *Pool) GetVec(n int) []float64 { return make([]float64, n) }

// PutVec takes a buffer back.
func (p *Pool) PutVec(v []float64) {}

// Free hands its argument back to the pool.
func Free(p *Pool, v []float64) { p.PutVec(v) }

// Keys returns m's keys in map-iteration order.
func Keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
