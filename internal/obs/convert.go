package obs

import "mllibstar/internal/metrics"

// CurveFromEvents rebuilds the convergence curve from the eval events of an
// event log, naming it from the log's meta events when present.
func CurveFromEvents(events []Event) *metrics.Curve {
	system, dataset := "", ""
	for _, e := range events {
		if e.Phase != PhaseMeta {
			continue
		}
		if len(e.Note) > 7 && e.Note[:7] == "system=" {
			system = e.Note[7:]
		}
		if len(e.Note) > 8 && e.Note[:8] == "dataset=" {
			dataset = e.Note[8:]
		}
	}
	c := metrics.NewCurve(system, dataset)
	for _, e := range events {
		if e.Phase == PhaseEval {
			c.Add(e.Step, e.Start, e.Loss)
		}
	}
	return c
}
