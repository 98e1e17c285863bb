// Package a calls b's helpers: each of its findings rests on a summary of
// package b, and the last three on one of package c reached through b.
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

// Sum folds floats in map-iteration order (determinism).
func Sum(m map[string]float64) float64 {
	s := 0.0
	for _, v := range b.Values(m) {
		s += v
	}
	return s
}

// OffloadVia hands the pool a helper that reaches telemetry through c
// (costcharge).
func OffloadVia() { par.Do(b.LogVia) }

// UseAfterRetireVia reads a buffer c gave back to the pool for b (buflife).
func UseAfterRetireVia(p *b.Pool) float64 {
	v := p.GetVec(4)
	b.RetireVia(p, v)
	return v[0]
}

// SumVia folds floats in the order c listed their keys (determinism).
func SumVia(m map[string]float64) float64 {
	s := 0.0
	for _, v := range b.ValuesVia(m) {
		s += v
	}
	return s
}
