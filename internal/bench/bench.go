// Package bench is the experiment harness: it maps every table and figure
// of the MLlib* paper to a runnable experiment that regenerates the
// corresponding rows/series on the simulated cluster, and provides the
// hyperparameter defaults (plus an optional grid search) used to produce
// them. The cmd/mlstar-bench binary and the repository-level benchmarks are
// thin wrappers around this package.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"mllibstar/internal/metrics"
	"mllibstar/internal/obs"
)

// RunConfig controls the fidelity/cost tradeoff of an experiment run.
type RunConfig struct {
	// Scale divides the paper datasets' rows and columns (see data.Preset).
	// Larger is cheaper. 0 means DefaultScale.
	Scale float64
	// Grid enables a small hyperparameter grid search per system instead of
	// the tuned defaults (slower, closer to the paper's methodology).
	Grid bool
	// EvalCap bounds the evaluation subsample size (0 = default 4000).
	EvalCap int
	// Sink is the telemetry sink every run of the experiment records into;
	// nil records nothing. A CLI passes the sink its -obs flags installed.
	Sink *obs.Sink
}

// DefaultScale keeps every experiment comfortably runnable in CI.
const DefaultScale = 5000

func (c RunConfig) scale() float64 {
	if c.Scale >= 1 {
		return c.Scale
	}
	return DefaultScale
}

func (c RunConfig) evalCap() int {
	if c.EvalCap > 0 {
		return c.EvalCap
	}
	return 4000
}

// Report is the regenerated artifact of one experiment.
type Report struct {
	ID    string
	Title string
	// Lines is the human-readable rendering (the figure's series, a table's
	// rows, or a gantt chart).
	Lines []string
	// Curves holds the raw convergence trajectories, when applicable.
	Curves []*metrics.Curve
	// Files maps output filenames to CSV contents for external plotting.
	Files map[string]string
	// Metrics holds the experiment's headline numbers (speedups, busy-time
	// shares, ...) for programmatic consumption by the benchmarks.
	Metrics map[string]float64
}

func (r *Report) addMetric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

func (r *Report) addLine(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Report) addFile(name, contents string) {
	if r.Files == nil {
		r.Files = map[string]string{}
	}
	r.Files[name] = contents
}

// addFilesFrom copies every output file of sub into r, in sorted name order.
func (r *Report) addFilesFrom(sub *Report) {
	names := make([]string, 0, len(sub.Files))
	for name := range sub.Files { //mlstar:nolint determinism -- names sorted before use; they only name output files, no fold, charge or seed
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.addFile(name, sub.Files[name])
	}
}

// addCurveCSV registers all curves as one CSV file.
func (r *Report) addCurveCSV(name string) {
	var b strings.Builder
	for i, c := range r.Curves {
		b.WriteString(c.CSV(i == 0))
	}
	r.addFile(name, b.String())
}

// addCurveSVG renders the curves as an SVG figure (objective vs simulated
// time, log axis — the paper's plot convention). The CSV registered by
// addCurveCSV is the figure's accessible table view.
func (r *Report) addCurveSVG(name, title string) {
	if len(r.Curves) == 0 {
		return
	}
	r.addFile(name, metrics.RenderSVG(r.Curves, metrics.SVGOptions{Title: title, LogX: true}))
}

// Text renders the report for terminal output.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg RunConfig) (*Report, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	ids := make([]string, 0, len(registry))
	for id := range registry { //mlstar:nolint determinism -- ids sorted before use; they only pick experiments, no fold, charge or seed
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		out = append(out, registry[id])
	}
	return out
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		ids := make([]string, 0, len(registry))
		for id := range registry { //mlstar:nolint determinism -- ids sorted before use; they only fill an error message
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have: %s)", id, strings.Join(ids, ", "))
	}
	return e, nil
}
