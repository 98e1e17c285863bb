// Package a calls b's helpers: each of its findings rests on a summary of
// package b, and the second on one of package c reached through b.
package a

import (
	"mllibstar/internal/b"
	"mllibstar/internal/par"
)

// Offload hands a helper that reaches telemetry to the pool (costcharge).
func Offload() { par.Do(b.Log) }

// OffloadVia hands the pool a helper that reaches telemetry through c
// (costcharge).
func OffloadVia() { par.Do(b.LogVia) }
