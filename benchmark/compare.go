package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// comparison is one (workload, metric) row of -compare and -selfcheck.
type comparison struct {
	workload string
	def      metricDef
	a, b     []float64
	delta    float64 // (median b - median a) / median a, signed so that positive is worse
	spread   float64 // the wider of the two sides' quartile distances, as a share of a's median
	verdict  string  // better | same | worse | unresolved
}

// pool gathers, per workload, the samples of one metric from every result of
// the kind in a file: the per-repetition samples of a timed metric, the single
// value of an exact one.
func pool(rs []*result, traced bool, name string, exact bool) map[string][]float64 {
	out := map[string][]float64{}
	for _, res := range rs {
		if res.Traced != traced {
			continue
		}
		v, ok := res.Metrics[name]
		if !ok {
			continue
		}
		if s := res.Samples[name]; !exact && len(s) > 0 {
			out[res.Workload] = append(out[res.Workload], s...)
		} else {
			out[res.Workload] = append(out[res.Workload], v.Value)
		}
	}
	return out
}

// judge fills in the delta, spread and verdict of a comparison.
//
// An exact metric repeats bit for bit at one seed, so any difference is a
// change: better or worse by its direction, never noise. A timed metric is
// worse when its median moved the wrong way by more than its bound, better
// when it moved the right way by more than the spread of the runs, and
// unresolved when the spread is wider than the bound — unless every sample of
// one side beats every sample of the other. A metric without a bound (per
// layer) is never worse or unresolved.
func (c *comparison) judge() {
	_, ma, _ := quartiles(c.a)
	_, mb, _ := quartiles(c.b)
	sign := 1.0
	if c.def.better == "higher" {
		sign = -1
	}
	if ma != 0 {
		c.delta = sign * (mb - ma) / math.Abs(ma)
		c.spread = math.Max(spread(c.a)*math.Abs(median(c.a)), spread(c.b)*math.Abs(median(c.b))) / math.Abs(ma)
	}
	if c.def.exact {
		switch {
		case sameBits(c.a, c.b):
			c.verdict = "same"
		case sign*(mb-ma) > 0:
			c.verdict = "worse"
		default:
			c.verdict = "better"
		}
		return
	}
	// cost turns every sample into a lower-is-better number.
	cost := func(s []float64) (lo, hi float64) {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, v := range s {
			lo, hi = math.Min(lo, sign*v), math.Max(hi, sign*v)
		}
		return lo, hi
	}
	aLo, aHi := cost(c.a)
	bLo, bHi := cost(c.b)
	allBetter, allWorse := bHi < aLo, bLo > aHi
	bound := c.def.bound
	switch {
	case bound > 0 && c.spread > bound && !allBetter && !(allWorse && c.delta > bound):
		c.verdict = "unresolved"
	case bound > 0 && c.delta > bound:
		c.verdict = "worse"
	case c.delta < 0 && -c.delta > c.spread:
		c.verdict = "better"
	default:
		c.verdict = "same"
	}
}

func sameBits(a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if math.Float64bits(x) != math.Float64bits(y) {
				return false
			}
		}
	}
	return true
}

// compareResults judges every metric both sides report, workload by workload.
func compareResults(a, b []*result) []comparison {
	var out []comparison
	for _, traced := range []bool{false, true} {
		for _, def := range metricOrder(traced) {
			pa, pb := pool(a, traced, def.name, def.exact), pool(b, traced, def.name, def.exact)
			for _, w := range workloads {
				if len(pa[w.name]) == 0 || len(pb[w.name]) == 0 {
					continue
				}
				c := comparison{workload: w.name, def: def, a: pa[w.name], b: pb[w.name]}
				c.judge()
				out = append(out, c)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return workloadIndex(out[i].workload) < workloadIndex(out[j].workload) })
	return out
}

func comparisonText(cs []comparison, left, right string) string {
	var b strings.Builder
	side := func(s []float64) string {
		q1, med, q3 := quartiles(s)
		if len(s) == 1 {
			return fmt.Sprintf("%.6g", med)
		}
		return fmt.Sprintf("%.6g [%.4g %.4g] n=%d", med, q1, q3, len(s))
	}
	fmt.Fprintf(&b, "%-9s %-32s %-38s %-38s %10s %8s %6s  %s\n", "workload", "metric", left, right, "delta", "spread", "bound", "verdict")
	for _, c := range cs {
		bound := "-"
		if c.def.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*c.def.bound)
		}
		_, base, _ := quartiles(c.a)
		fmt.Fprintf(&b, "%-9s %-32s %-38s %-38s %+9.2f%% %7.2f%% %6s  %s (of %.6g %s)\n",
			c.workload, c.def.name, side(c.a), side(c.b), 100*c.delta, 100*c.spread, bound, c.verdict, base, c.def.unit)
	}
	b.WriteString("delta is (median b - median a) / median a, positive = worse; spread is the wider quartile distance of the two sides over a's median\n")
	return b.String()
}

// checkSeeds refuses to compare exact metrics across different inputs.
func checkSeeds(a, b []*result) error {
	seeds := map[int64]bool{}
	for _, rs := range [][]*result{a, b} {
		for _, res := range rs {
			seeds[res.Seed] = true
		}
	}
	if len(seeds) > 1 {
		return fmt.Errorf("the files hold runs of %d different seeds; exact metrics compare only at one seed", len(seeds))
	}
	return nil
}

// compareFiles is -compare: it prints the verdict table of two -json files
// and fails when an end-to-end metric is worse.
func compareFiles(pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if err := checkSeeds(a, b); err != nil {
		return err
	}
	cs := compareResults(a, b)
	if len(cs) == 0 {
		return fmt.Errorf("%s and %s share no workload and metric", pathA, pathB)
	}
	fmt.Print(comparisonText(cs, "a: "+pathA, "b: "+pathB))
	var worse []string
	for _, c := range cs {
		if c.verdict == "worse" && c.def.bound > 0 {
			worse = append(worse, c.workload+"/"+c.def.name)
		}
	}
	if len(worse) > 0 {
		return fmt.Errorf("worse: %s", strings.Join(worse, ", "))
	}
	return nil
}

// selfCheck is -selfcheck: the full set twice on the same binary, the second
// time in reverse workload order, compared like two commits. Its table is the
// benchmark's noise floor; the bounds in BENCHMARK.json were set from it. It
// fails when a bounded metric's medians differ by more than the bound, or an
// exact metric differs at all.
func selfCheck(opt options) error {
	opt.traced = false
	first, err := runAll(opt, false)
	if err != nil {
		return err
	}
	second, err := runAll(opt, true)
	if err != nil {
		return err
	}
	cs := compareResults(first, second)
	fmt.Print(comparisonText(cs, "first set", "second set (reverse order)"))
	var bad []string
	for _, rs := range [][]*result{first, second} {
		for _, res := range rs {
			if res.Failed > 0 {
				bad = append(bad, fmt.Sprintf("%s: %d failed checks", res.Workload, res.Failed))
			}
		}
	}
	for _, c := range cs {
		if c.def.exact && c.verdict != "same" {
			bad = append(bad, fmt.Sprintf("%s/%s is not bit-identical", c.workload, c.def.name))
		} else if !c.def.exact && math.Abs(c.delta) > c.def.bound {
			bad = append(bad, fmt.Sprintf("%s/%s medians differ by %.2f%%, bound %.0f%%", c.workload, c.def.name, 100*c.delta, 100*c.def.bound))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: %s", strings.Join(bad, "; "))
	}
	fmt.Println("selfcheck: every end-to-end metric agrees within its bound; exact metrics are bit-identical")
	return nil
}
