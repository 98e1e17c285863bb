// Package obshttp serves a running (or finished) simulation's telemetry
// over HTTP: the Prometheus-style text exposition, JSON snapshots, the raw
// JSONL event log, the bottleneck attribution report, and a small HTML
// dashboard embedding the repo's existing SVG renderers (convergence curves
// and Figure-3 gantt charts).
//
// The handler only reads the sink — through its snapshot accessors, which
// hold the sink's mutex just long enough to copy the log's block headers —
// so it is safe to serve while the simulation is still writing.
// Serving telemetry does not touch the virtual clock: a live dashboard
// cannot change what the simulation computes, only watch it.
package obshttp

import (
	"encoding/json"
	"fmt"
	"html"
	"net"
	"net/http"
	"strings"

	"mllibstar/internal/causal"
	"mllibstar/internal/metrics"
	"mllibstar/internal/obs"
)

// Handler returns the telemetry mux for a sink:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  registry snapshot as JSON
//	/events        the superstep event log as JSONL
//	/report        bottleneck attribution, plain text
//	/report.json   bottleneck attribution, JSON
//	/              HTML dashboard (curve SVG + gantt SVG + report)
func Handler(s *obs.Sink) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.Registry().WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(s.Registry()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := s.WriteJSONL(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, obs.Attribute(s.Events()).Text())
	})
	mux.HandleFunc("/report.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(obs.Attribute(s.Events())); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, dashboard(s))
	})
	return mux
}

// dashboard renders the one-page HTML view: run header, convergence curve,
// gantt trace, and the attribution report, all regenerated per request from
// the sink's current snapshot.
func dashboard(s *obs.Sink) string {
	events := s.Events()
	report := obs.Attribute(events)
	curve := obs.CurveFromEvents(events)
	gantt := obs.GanttFromEvents(events)

	title := "mlstar telemetry"
	if report.System != "" {
		title += " — " + report.System
		if report.Dataset != "" {
			title += " on " + report.Dataset
		}
	}
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><meta charset=\"utf-8\">")
	fmt.Fprintf(&b, "<title>%s</title>", html.EscapeString(title))
	b.WriteString(`<style>
body { font-family: system-ui, -apple-system, sans-serif; margin: 24px; background: #fcfcfb; color: #0b0b0b; }
h1 { font-size: 18px; } h2 { font-size: 15px; margin-top: 28px; }
pre { background: #f4f3f1; padding: 12px; overflow-x: auto; font-size: 12px; }
nav a { margin-right: 14px; font-size: 13px; }
.meta { color: #52514e; font-size: 13px; }
</style></head><body>`)
	fmt.Fprintf(&b, "<h1>%s</h1>", html.EscapeString(title))
	fmt.Fprintf(&b, `<p class="meta">superstep %d · %d events · refresh for the latest snapshot</p>`,
		s.Step(), len(events))
	b.WriteString(`<nav><a href="/metrics">/metrics</a><a href="/metrics.json">/metrics.json</a>` +
		`<a href="/events">/events</a><a href="/report">/report</a><a href="/report.json">/report.json</a></nav>`)
	if curve.Len() >= 2 {
		b.WriteString("<h2>Convergence</h2>")
		b.WriteString(metrics.RenderSVG([]*metrics.Curve{curve}, metrics.SVGOptions{
			Title: "objective vs simulated time", LogX: true,
		}))
	}
	if len(gantt.Spans) > 0 {
		b.WriteString("<h2>Activity (Figure-3 view)</h2>")
		b.WriteString(gantt.SVG("per-node activity, virtual time", 1100))
	}
	b.WriteString("<h2>Bottleneck attribution</h2><pre>")
	b.WriteString(html.EscapeString(report.Text()))
	b.WriteString("</pre>")
	// The message-level critical path, from the log's causal fields; a log
	// recorded by an older build or another tool may lack them, fails
	// Analyze and skips it.
	if g, err := causal.Analyze(events); err == nil {
		b.WriteString("<h2>Critical path</h2><pre>")
		b.WriteString(html.EscapeString(causal.CriticalPath(g).Text(20)))
		b.WriteString("</pre>")
	}
	b.WriteString("</body></html>")
	return b.String()
}

// Serve starts the telemetry server on addr in a background goroutine and
// returns the bound address (useful with ":0") and a shutdown func. The
// simulation thread never blocks on it.
func Serve(addr string, s *obs.Sink) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(s)}
	go func() { _ = srv.Serve(ln) }() //mlstar:nolint determinism -- live dashboard server; serves wall-clock HTTP, never feeds results back into the simulation
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
