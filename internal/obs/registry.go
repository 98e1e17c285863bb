package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Registry is a small, deterministic metrics registry: counters, gauges, and
// histograms keyed by fixed label sets. Every value is driven by the virtual
// clock (durations are simulated seconds), families and series are exposed
// in canonical sorted order, and floats print in shortest form — so the text
// exposition of a deterministic run is itself byte-reproducible, and a
// golden-file test can pin it.
//
// The API mirrors the Prometheus client conceptually but is stdlib-only and
// far smaller: a Family is declared once with its label names, and samples
// are recorded with positional label values.
type Registry struct {
	families map[string]*Family
	order    []string
}

// FamilyKind is the metric type of a family.
type FamilyKind string

// Family kinds, named as the Prometheus exposition format spells them.
const (
	KindCounter   FamilyKind = "counter"
	KindGauge     FamilyKind = "gauge"
	KindHistogram FamilyKind = "histogram"
)

// Family is one named metric with a fixed label set.
type Family struct {
	name    string
	help    string
	kind    FamilyKind
	labels  []string
	buckets []float64 // histogram upper bounds, ascending (+Inf implicit)
	series  map[string]*series
	order   []string
}

// series is one labeled time series within a family.
type series struct {
	labelVals []string
	value     float64  // counter/gauge
	counts    []uint64 // histogram: observations per bucket, last = overflow
	sum       float64
	n         uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*Family{}}
}

// Counter declares (or returns the existing) counter family.
func (r *Registry) Counter(name, help string, labels ...string) *Family {
	return r.family(name, help, KindCounter, nil, labels)
}

// Gauge declares (or returns the existing) gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *Family {
	return r.family(name, help, KindGauge, nil, labels)
}

// Histogram declares (or returns the existing) histogram family with the
// given ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Family {
	return r.family(name, help, KindHistogram, buckets, labels)
}

func (r *Registry) family(name, help string, kind FamilyKind, buckets []float64, labels []string) *Family {
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: family %q redeclared with different shape", name))
		}
		return f
	}
	f := &Family{
		name: name, help: help, kind: kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  map[string]*series{},
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// get finds or creates the series for the given label values.
func (f *Family) get(labelVals []string) *series {
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("obs: family %q wants %d label values, got %d", f.name, len(f.labels), len(labelVals)))
	}
	key := strings.Join(labelVals, "\x00")
	s, ok := f.series[key]
	if !ok {
		s = &series{labelVals: append([]string(nil), labelVals...)}
		if f.kind == KindHistogram {
			s.counts = make([]uint64, len(f.buckets)+1)
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// add, set and observe update a counter (v must be non-negative), gauge or
// histogram series; Sink.Registry's fold is their one caller.
func (f *Family) add(v float64, labelVals ...string) {
	if v < 0 {
		panic(fmt.Sprintf("obs: negative counter increment %g on %s", v, f.name))
	}
	f.get(labelVals).value += v
}

func (f *Family) set(v float64, labelVals ...string) {
	f.get(labelVals).value = v
}

func (f *Family) observe(v float64, labelVals ...string) {
	s := f.get(labelVals)
	i := sort.SearchFloat64s(f.buckets, v) // first bucket with bound >= v
	s.counts[i]++
	s.sum += v
	s.n++
}

// fnum prints a float in the registry's canonical shortest form.
func fnum(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// labelPairs renders {k="v",...} for the series, with extra appended last
// (used for histogram le bounds).
func (f *Family) labelPairs(s *series, extra string) string {
	if len(f.labels) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabel(s.labelVals[i]))
	}
	if extra != "" {
		if len(f.labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// sortedSeries returns the family's series sorted by label values — the
// canonical exposition order, independent of recording order.
func (f *Family) sortedSeries() []*series {
	out := make([]*series, 0, len(f.order))
	for _, key := range f.order {
		out = append(out, f.series[key])
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].labelVals, out[j].labelVals
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// WriteText renders the registry in the Prometheus text exposition format,
// families sorted by name, series by label values.
func (r *Registry) WriteText(w io.Writer) error {
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := r.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.sortedSeries() {
			switch f.kind {
			case KindHistogram:
				cum := uint64(0)
				for i, bound := range f.buckets {
					cum += s.counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, f.labelPairs(s, `le="`+fnum(bound)+`"`), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, f.labelPairs(s, `le="+Inf"`), s.n)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, f.labelPairs(s, ""), fnum(s.sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, f.labelPairs(s, ""), s.n)
			default:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, f.labelPairs(s, ""), fnum(s.value))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// SnapshotSeries is one series in the JSON snapshot.
type SnapshotSeries struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value,omitempty"`
	Sum    float64           `json:"sum,omitempty"`
	Count  uint64            `json:"count,omitempty"`
	// Buckets maps each upper bound (shortest-form, "+Inf" last) to the
	// cumulative observation count — histogram families only.
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// SnapshotFamily is one family in the JSON snapshot.
type SnapshotFamily struct {
	Name   string           `json:"name"`
	Kind   FamilyKind       `json:"kind"`
	Help   string           `json:"help"`
	Series []SnapshotSeries `json:"series"`
}

// Snapshot returns the registry's state as a JSON-marshalable structure with
// the same canonical ordering as WriteText (json sorts the label maps).
func (r *Registry) Snapshot() []SnapshotFamily {
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	out := make([]SnapshotFamily, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		sf := SnapshotFamily{Name: f.name, Kind: f.kind, Help: f.help}
		for _, s := range f.sortedSeries() {
			ss := SnapshotSeries{}
			if len(f.labels) > 0 {
				ss.Labels = map[string]string{}
				for i, k := range f.labels {
					ss.Labels[k] = s.labelVals[i]
				}
			}
			if f.kind == KindHistogram {
				ss.Sum, ss.Count = s.sum, s.n
				ss.Buckets = map[string]uint64{}
				cum := uint64(0)
				for i, bound := range f.buckets {
					cum += s.counts[i]
					ss.Buckets[fnum(bound)] = cum
				}
				ss.Buckets["+Inf"] = s.n
			} else {
				ss.Value = s.value
			}
			sf.Series = append(sf.Series, ss)
		}
		out = append(out, sf)
	}
	return out
}

// MarshalJSON renders the snapshot, so a *Registry can be embedded directly
// in JSON responses.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Families []SnapshotFamily `json:"families"`
	}{r.Snapshot()})
}
