// Package a calls b's helpers: each of its three findings rests on a fact
// the driver carried over from package b.
package a

import (
	"mllibstar/internal/b"
	"mllibstar/internal/par"
)

// Offload hands a helper that reaches telemetry to the pool (costcharge).
func Offload() { par.Do(b.Log) }

// UseAfterRetire reads a buffer its helper gave back to the pool (buflife).
func UseAfterRetire(p *b.Pool) float64 {
	v := p.GetVec(4)
	b.Retire(p, v)
	return v[0]
}

// Sum folds floats in map-iteration order (detflow).
func Sum(m map[string]float64) float64 {
	s := 0.0
	for _, v := range b.Values(m) {
		s += v
	}
	return s
}
