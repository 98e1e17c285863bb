package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesCode keeps BENCHMARK.json and the benchmark's own
// tables equal: same workloads, same metric names, units, directions, bounds.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	compare := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			d := want[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s] %s, the benchmark %s [%s] %s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if !nameRE.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("%s: name %q is malformed or used twice", kind, g.Name)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || math.Float64bits(*g.Bound) != math.Float64bits(d.bound) || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %s: bound in BENCHMARK.json %v, in the benchmark %v", kind, g.Name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, g.Name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", m.Paths)
	}
}

// smokeRun measures one workload at smoke size in this process.
func smokeRun(t *testing.T, w *workload, seed int64, traced bool) *result {
	t.Helper()
	res, err := runWorkload(w, options{seed: seed, traced: traced, smoke: true})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if res.Failed != 0 {
		t.Fatalf("%s: failed checks: %v", w.name, res.Failures)
	}
	return res
}

// TestSmoke runs every workload at smoke size, once untraced and once
// traced: each declared metric is printed exactly once with its unit, and the
// exact metrics and the fingerprints of model and inputs agree bit for bit
// across the two runs.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		first := smokeRun(t, w, 1, false)
		traced := smokeRun(t, w, 1, true)
		for _, res := range []*result{first, traced} {
			var out strings.Builder
			printResult(&out, res)
			printed := map[string]int{}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); strings.HasPrefix(line, "  ") && len(f) >= 3 {
					if def := defByName(f[0]); def != nil && f[2] == def.unit {
						printed[f[0]]++
					}
				}
			}
			for _, def := range metricOrder(res.Traced) {
				if printed[def.name] != 1 {
					t.Errorf("%s traced=%v: %s printed %d times with its unit", w.name, res.Traced, def.name, printed[def.name])
				}
			}
			if len(printed) != len(metricOrder(res.Traced)) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", w.name, res.Traced, len(printed), len(metricOrder(res.Traced)))
			}
		}
		for _, def := range endToEnd {
			a, b := first.Metrics[def.name].Value, traced.Metrics[def.name].Value
			if def.exact && math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("%s: exact metric %s differs across two runs: %v and %v", w.name, def.name, a, b)
			}
		}
		if first.Weights != traced.Weights || first.Inputs != traced.Inputs {
			t.Errorf("%s: fingerprints differ: weights %s %s, inputs %s %s", w.name, first.Weights, traced.Weights, first.Inputs, traced.Inputs)
		}
		if traced.Metrics["failed_share"].Value != 0 {
			t.Errorf("%s: failed_share %v", w.name, traced.Metrics["failed_share"].Value)
		}
	}
}

// TestSeedChangesInputs: the inputs are a function of the seed.
func TestSeedChangesInputs(t *testing.T) {
	for i := range workloads {
		w := workloads[i].smoke()
		a := hashInputs(generateInputs(&w, 1, nil, -1))
		again := hashInputs(generateInputs(&w, 1, nil, -1))
		b := hashInputs(generateInputs(&w, 2, nil, -1))
		if a != again {
			t.Errorf("%s: the same seed gave inputs %016x and %016x", w.name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs %016x", w.name, a)
		}
	}
}

// TestJudge pins the verdict rules of -compare.
func TestJudge(t *testing.T) {
	wall := *defByName("wall_s")
	sim := *defByName("sim_s")
	cases := []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{wall, []float64{1, 1.01, 0.99}, []float64{1.005, 1, 1.01}, "same"},
		{wall, []float64{1, 1.01, 0.99}, []float64{1.3, 1.31, 1.29}, "worse"},
		{wall, []float64{1, 1.01, 0.99}, []float64{0.8, 0.81, 0.79}, "better"},
		{wall, []float64{1, 1.3, 0.7}, []float64{1.05, 1.3, 0.8}, "unresolved"},
		{sim, []float64{2}, []float64{2}, "same"},
		{sim, []float64{2}, []float64{2.0000001}, "worse"},
		{sim, []float64{2}, []float64{1.9}, "better"},
	}
	for i, tc := range cases {
		c := comparison{def: tc.def, a: tc.a, b: tc.b}
		c.judge()
		if c.verdict != tc.want {
			t.Errorf("case %d: verdict %s, want %s (delta %v spread %v)", i, c.verdict, tc.want, c.delta, c.spread)
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
