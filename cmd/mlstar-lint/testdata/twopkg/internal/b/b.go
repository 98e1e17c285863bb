// Package b holds helpers whose effects reach their callers in package a
// only through their summaries; the helpers named *Via get theirs from
// package c.
package b

import (
	"mllibstar/internal/c"
	"mllibstar/internal/obs"
)

// Log reaches telemetry.
func Log() { obs.Note("b") }

// LogVia reaches telemetry through c.
func LogVia() { c.Trace() }

// Pool stands in for the engine's vector pool.
type Pool = c.Pool

// Retire hands its argument back to the pool.
func Retire(p *Pool, v []float64) { p.PutVec(v) }

// RetireVia hands its argument back to the pool through c.
func RetireVia(p *Pool, v []float64) { c.Free(p, v) }

// Values returns m's values in map-iteration order.
func Values(m map[string]float64) []float64 {
	var out []float64
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// ValuesVia returns m's values in the order c lists its keys.
func ValuesVia(m map[string]float64) []float64 {
	var out []float64
	for _, k := range c.Keys(m) {
		out = append(out, m[k])
	}
	return out
}
