// Package b holds helpers whose effects reach their callers in package a
// only through the facts the analyzers export for them.
package b

import "mllibstar/internal/obs"

// Log reaches telemetry.
func Log() { obs.Note("b") }

// Pool stands in for the engine's vector pool.
type Pool struct{}

// GetVec lends a buffer.
func (p *Pool) GetVec(n int) []float64 { return make([]float64, n) }

// PutVec takes a buffer back.
func (p *Pool) PutVec(v []float64) {}

// Retire hands its argument back to the pool.
func Retire(p *Pool, v []float64) { p.PutVec(v) }

// Values returns m's values in map-iteration order.
func Values(m map[string]float64) []float64 {
	var out []float64
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
