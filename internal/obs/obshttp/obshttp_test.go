package obshttp

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"mllibstar/internal/obs"
)

func testSink() *obs.Sink {
	s := obs.NewSink()
	s.Meta("system", "MLlib")
	s.Meta("dataset", "synth")
	s.SetStep(1, 0)
	s.Span("driver", obs.PhaseSchedule, 0, 0.001, "schedule")
	s.Message("driver", obs.PhaseBroadcast, obs.ChanDriver, obs.DirSend, obs.EncDense, 8000, 0.001, 0.003)
	s.Eval(1, "", 0.003, 0.5, 0)
	s.SetStep(2, 0.003)
	s.Span("executor0", obs.PhaseCompute, 0.004, 0.014, "")
	s.Eval(2, "", 0.014, 0.25, 0)
	return s
}

func get(t *testing.T, srv *httptest.Server, path string) (string, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler(testSink()))
	defer srv.Close()

	body, ct := get(t, srv, "/metrics")
	if !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	for _, want := range []string{"# TYPE mlstar_superstep gauge", "mlstar_comm_bytes_total", "mlstar_loss 0.25"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	body, ct = get(t, srv, "/metrics.json")
	if !strings.Contains(ct, "application/json") || !strings.Contains(body, `"families"`) {
		t.Errorf("/metrics.json: ct=%q body=%s", ct, body)
	}

	body, _ = get(t, srv, "/events")
	if got := strings.Count(strings.TrimSpace(body), "\n") + 1; got != testSink().Len() {
		t.Errorf("/events has %d lines, want %d", got, testSink().Len())
	}

	body, _ = get(t, srv, "/report")
	if !strings.Contains(body, "bottleneck attribution: system=MLlib dataset=synth") {
		t.Errorf("/report: %s", body)
	}

	body, _ = get(t, srv, "/report.json")
	if !strings.Contains(body, `"dominant_cost"`) {
		t.Errorf("/report.json: %s", body)
	}

	body, ct = get(t, srv, "/")
	if !strings.Contains(ct, "text/html") {
		t.Errorf("dashboard content type %q", ct)
	}
	for _, want := range []string{"MLlib on synth", "<svg", "Bottleneck attribution"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if strings.Contains(body, "Critical path") {
		t.Error("dashboard rendered a critical-path section for a non-causal log")
	}

	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: status %d", resp.StatusCode)
	}
}

// TestDashboardCriticalPath pins the conditional section: a causally-enriched
// log gets the message-level critical path on the dashboard, a plain log
// (checked in TestEndpoints) does not.
func TestDashboardCriticalPath(t *testing.T) {
	s := obs.SinkFromEvents([]obs.Event{
		{Phase: obs.PhaseCausalSpec, Note: "latency=0.0001;overhead=0"},
		{Phase: obs.PhaseCausalSpec, Node: "a", Note: "rate=1e9;sbw=1e8;rbw=1e8"},
		{Phase: obs.PhaseCausalSpec, Node: "b", Note: "rate=1e9;sbw=1e8;rbw=1e8"},
		{Phase: obs.PhaseCompute, Node: "a", Proc: "w#1", Start: 0, End: 0.001},
		{Phase: obs.PhaseReduceScatter, Node: "a", Proc: "w#1", Dir: obs.DirSend, Chan: obs.ChanShuffle,
			Enc: obs.EncDense, Bytes: 1e4, Start: 0.001, End: 0.0011, MID: 1, Note: "xch:rs:s1"},
		{Phase: obs.PhaseReduceScatter, Node: "b", Proc: "x#1", Dir: obs.DirRecv, Chan: obs.ChanShuffle,
			Enc: obs.EncDense, Bytes: 1e4, Start: 0.0012, End: 0.0013, MID: 1, Note: "xch:rs:s1"},
		{Phase: obs.PhaseCompute, Node: "b", Proc: "x#1", Start: 0.0013, End: 0.0023},
	})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	body, _ := get(t, srv, "/")
	if !strings.Contains(body, "Critical path") || !strings.Contains(body, "critical path") {
		t.Errorf("dashboard missing the critical-path section:\n%s", body)
	}
}

func TestServe(t *testing.T) {
	addr, stop, err := Serve("127.0.0.1:0", testSink())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestScrapeWhileRecording is the concurrency contract of the block-stored
// log (run under -race): while one goroutine records, every scrape of
// /metrics, /events and /report through the handler is well-formed, and what
// /events returned is a prefix of the final log — recorded events are never
// rewritten, so a reader that snapshotted the blocks sees them as they stay.
func TestScrapeWhileRecording(t *testing.T) {
	const n, batch = 20000, 1000
	s := obs.NewSink()
	h := Handler(s)
	tick := make(chan struct{}) // the scraper offers one after every round
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Meta("system", "MLlib*")
		for i := 1; s.Len() < n; i++ {
			now := float64(i) * 1e-4
			switch i % 5 {
			case 0:
				s.SetStep(i/5, now)
			case 1:
				s.Message("executor0", obs.PhaseReduceScatter, obs.ChanShuffle, obs.DirSend, obs.EncSparse, 1200, now, now+5e-5)
			case 2:
				s.Message("executor1", obs.PhaseReduceScatter, obs.ChanShuffle, obs.DirRecv, obs.EncSparse, 1200, now, now+5e-5)
			case 3:
				s.Span("executor1", obs.PhaseCompute, now, now+9e-5, "")
			case 4:
				s.Eval(s.Step(), "", now, 1/float64(i), 0)
			}
			// Pace the recorder by the scraper, one round per batch, so the
			// rounds spread over the whole recording and each of them races
			// with the records of the next batch.
			if s.Len()%batch == 0 {
				<-tick
			}
		}
	}()

	scrape := func(path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	// Every /events body must extend the previous one and the last must be
	// the final log, which makes each of them a prefix of it.
	var prev string
	rounds := 0
	round := func() {
		for _, line := range strings.Split(strings.TrimSuffix(scrape("/metrics"), "\n"), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("/metrics: malformed sample line %q", line)
			}
			if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
				t.Fatalf("/metrics: sample line %q: %v", line, err)
			}
		}
		body := scrape("/events")
		if !strings.HasPrefix(body, prev) {
			t.Fatalf("round %d: /events (%d bytes) does not extend the previous scrape (%d bytes)", rounds, len(body), len(prev))
		}
		if _, err := obs.ReadJSONL(strings.NewReader(body[len(prev):])); err != nil {
			t.Fatalf("round %d: what /events added does not parse: %v", rounds, err)
		}
		prev = body
		if rep := scrape("/report"); !strings.HasPrefix(rep, "bottleneck attribution") {
			t.Fatalf("/report: %s", rep)
		}
		rounds++
		select {
		case tick <- struct{}{}:
		default: // the recorder is mid-batch
		}
	}
	for recording := true; recording; {
		select {
		case <-done:
			recording = false
		default:
		}
		round() // the last round runs after the recorder has finished
	}

	var final strings.Builder
	if err := s.WriteJSONL(&final); err != nil {
		t.Fatal(err)
	}
	if s.Len() != n || rounds < n/batch {
		t.Errorf("recorded %d events over %d scrape rounds, want %d over at least %d", s.Len(), rounds, n, n/batch)
	}
	if prev != final.String() {
		t.Errorf("/events after the last record (%d bytes) is not the final log (%d bytes)", len(prev), final.Len())
	}
}
