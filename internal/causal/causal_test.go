package causal

import (
	"math"
	"strings"
	"testing"

	"mllibstar/internal/obs"
)

// synthEvents builds a minimal causally-enriched log: a compute span on host
// a, a message a→b (send 1e4 bytes at 1e8 B/s = 100µs, 100µs propagation,
// 100µs in-NIC), and a compute span on b — a four-node chain.
func synthEvents() []obs.Event {
	return []obs.Event{
		{Phase: obs.PhaseCausalSpec, Note: "latency=0.0001;overhead=0"},
		{Phase: obs.PhaseCausalSpec, Node: "a", Note: "rate=1e9;sbw=1e8;rbw=1e8"},
		{Phase: obs.PhaseCausalSpec, Node: "b", Note: "rate=1e9;sbw=1e8;rbw=1e8"},
		{Phase: obs.PhaseCompute, Node: "a", Proc: "w#1", Start: 0, End: 0.001},
		{Phase: obs.PhaseReduceScatter, Node: "a", Proc: "w#1", Dir: obs.DirSend, Chan: obs.ChanShuffle,
			Enc: obs.EncDense, Bytes: 1e4, Start: 0.001, End: 0.0011, MID: 1, Note: "xch:rs:s1"},
		{Phase: obs.PhaseReduceScatter, Node: "b", Proc: "x#1", Dir: obs.DirRecv, Chan: obs.ChanShuffle,
			Enc: obs.EncDense, Bytes: 1e4, Start: 0.0012, End: 0.0013, MID: 1, Note: "xch:rs:s1"},
		{Phase: obs.PhaseCompute, Node: "b", Proc: "x#1", Start: 0.0013, End: 0.0023},
	}
}

func TestBuildRejectsUnenrichedLog(t *testing.T) {
	events := []obs.Event{
		{Phase: obs.PhaseCompute, Node: "a", Start: 0, End: 1},
		{Phase: obs.PhaseCompute, Node: "b", Start: 1, End: 2},
	}
	if _, err := Build(events); err == nil {
		t.Fatal("Build accepted a log with no causal enrichment")
	}
}

func TestSynthChainGraph(t *testing.T) {
	g, err := Analyze(synthEvents())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 4 {
		t.Fatalf("%d nodes, want 4", len(g.Nodes))
	}
	if g.Latency != 0.0001 || g.Overhead != 0 {
		t.Fatalf("network config latency=%g overhead=%g", g.Latency, g.Overhead)
	}
	if sp := g.Specs["a"]; sp.Rate != 1e9 || sp.SendBW != 1e8 || sp.RecvBW != 1e8 {
		t.Fatalf("spec a = %+v", sp)
	}
	if mk := g.Makespan(); math.Abs(mk-0.0023) > 1e-12 {
		t.Fatalf("makespan %g, want 0.0023", mk)
	}

	p := CriticalPath(g)
	if len(p.Steps) != 4 {
		t.Fatalf("%d path steps, want 4", len(p.Steps))
	}
	if math.Abs(p.Busy-0.0022) > 1e-12 || math.Abs(p.Latency-0.0001) > 1e-12 || math.Abs(p.Wait) > 1e-12 {
		t.Fatalf("decomposition busy=%g latency=%g wait=%g", p.Busy, p.Latency, p.Wait)
	}
	if sum := p.Busy + p.Latency + p.Wait; math.Abs(sum-p.Makespan) > 1e-12 {
		t.Fatalf("decomposition %g does not telescope to makespan %g", sum, p.Makespan)
	}
	phase, driver := p.Dominant()
	if phase != obs.PhaseCompute || driver != 0 {
		t.Fatalf("dominant = (%q, %g), want (compute, 0)", phase, driver)
	}
	if txt := p.Text(10); !strings.Contains(txt, "critical path") || !strings.Contains(txt, "compute") {
		t.Fatalf("report missing expected sections:\n%s", txt)
	}
}

func TestSynthRetimeScenarios(t *testing.T) {
	g, err := Analyze(synthEvents())
	if err != nil {
		t.Fatal(err)
	}
	mk := g.Makespan()
	for _, tc := range []struct {
		sc   Scenario
		want float64
	}{
		// Identity reproduces the recorded schedule exactly.
		{Scenario{Name: "identity"}, mk},
		// Halving comm halves both NIC services: -100µs.
		{Scenario{Name: "comm", CommScale: 0.5}, 0.0022},
		// Halving compute halves both spans: -1ms.
		{Scenario{Name: "compute", ComputeScale: 0.5}, 0.0013},
		// Halving latency halves the propagation lag: -50µs.
		{Scenario{Name: "latency", LatencyScale: 0.5}, 0.00225},
		// No driver-prefixed host: driver=0 changes nothing.
		{Scenario{Name: "driver", DriverZero: true}, mk},
	} {
		pr := Retime(g, tc.sc)
		if pr.Err != "" {
			t.Fatalf("%s: %s", tc.sc.Name, pr.Err)
		}
		if math.Abs(pr.Makespan-tc.want) > 1e-12 {
			t.Errorf("%s: makespan %g, want %g", tc.sc.Name, pr.Makespan, tc.want)
		}
	}
	if bits := math.Float64bits(Retime(g, Scenario{}).Makespan); bits != math.Float64bits(mk) {
		t.Errorf("identity retime is not bit-exact: %x != %x", bits, math.Float64bits(mk))
	}
}

// TestBarrierRouting pins the barrier resolution rule: the critical path
// routes through the slowest arrival, and the decomposition still telescopes.
func TestBarrierRouting(t *testing.T) {
	events := []obs.Event{
		{Phase: obs.PhaseCompute, Node: "a", Proc: "w#1", Start: 0, End: 0.001},
		{Phase: obs.PhaseCompute, Node: "b", Proc: "x#1", Start: 0, End: 0.003},
		{Phase: obs.PhaseCausalBarrier, Node: "a", Proc: "w#1", Grp: "clock@0", Start: 0.001, End: 0.003},
		{Phase: obs.PhaseCausalBarrier, Node: "b", Proc: "x#1", Grp: "clock@0", Start: 0.003, End: 0.003},
		{Phase: obs.PhaseCompute, Node: "a", Proc: "w#1", Start: 0.003, End: 0.004},
	}
	g, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	p := CriticalPath(g)
	if math.Abs(p.Makespan-0.004) > 1e-12 {
		t.Fatalf("makespan %g, want 0.004", p.Makespan)
	}
	if sum := p.Busy + p.Latency + p.Wait; math.Abs(sum-p.Makespan) > 1e-12 {
		t.Fatalf("decomposition %g does not telescope to %g", sum, p.Makespan)
	}
	// The path must route a.compute(2) <- barrier <- b.compute, not a.compute(1).
	var hosts []string
	for _, s := range p.Steps {
		hosts = append(hosts, p.G.Nodes[s.Node].Host+":"+p.G.Nodes[s.Node].Kind.String())
	}
	got := strings.Join(hosts, " ")
	if !strings.Contains(got, "b:span") || !strings.Contains(got, "barrier") {
		t.Fatalf("path %q does not route through the slowest barrier member", got)
	}
	id := Retime(g, Scenario{})
	if math.Float64bits(id.Makespan) != math.Float64bits(0.004) {
		t.Fatalf("identity retime %g, want 0.004", id.Makespan)
	}
	// Speeding b up moves the release earlier; a's second span follows.
	fast := Retime(g, Scenario{ComputeScale: 0.5})
	if math.Abs(fast.Makespan-0.002) > 1e-12 {
		t.Fatalf("compute x0.5 makespan %g, want 0.002", fast.Makespan)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	base := synthEvents()
	mutate := func(fn func(events []obs.Event)) error {
		events := append([]obs.Event(nil), base...)
		fn(events)
		g, err := Build(events)
		if err != nil {
			return err
		}
		return Validate(g)
	}
	if err := mutate(func(events []obs.Event) {}); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	for name, fn := range map[string]func([]obs.Event){
		"recv before wire": func(e []obs.Event) { e[5].Start, e[5].End = 0.00105, 0.00115 },
		"unmatched recv":   func(e []obs.Event) { e[5].MID = 99 },
		"inverted span":    func(e []obs.Event) { e[3].Start, e[3].End = 0.001, 0 },
		"non-finite span":  func(e []obs.Event) { e[3].End = math.NaN() },
		"chain overlap":    func(e []obs.Event) { e[6].Start = 0.0005 },
		"duplicate mid":    func(e []obs.Event) { e[4].MID = 1; e[3] = e[5] },
	} {
		if err := mutate(fn); err == nil {
			t.Errorf("%s: Validate accepted the corrupted log", name)
		}
	}
}
