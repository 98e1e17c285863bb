// Package b holds helpers whose effects reach their callers in package a
// only through their summaries; LogVia gets its effect from package c.
package b

import (
	"mllibstar/internal/c"
	"mllibstar/internal/obs"
)

// Log reaches telemetry.
func Log() { obs.Note("b") }

// LogVia reaches telemetry through c.
func LogVia() { c.Trace() }
