// Package obs stands in for the telemetry layer: costcharge counts every
// call into mllibstar/internal/obs as telemetry.
package obs

// Note records one event.
func Note(string) {}
