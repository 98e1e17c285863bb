// Package c holds the leaf helper that b's LogVia calls: a finding of a
// that rests on c reaches it only through b.
package c

import "mllibstar/internal/obs"

// Trace reaches telemetry.
func Trace() { obs.Note("c") }
