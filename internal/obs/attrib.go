package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Attribution reproduces the paper's Section-3 breakdown from an event log:
// for every superstep it computes the driver's busy time, the worker-side
// compute and communication critical paths, and the residual wait, then
// classifies the run's dominant cost — B2-style driver serialization,
// network, compute, or wait — and its update pattern (B1-style single
// update per step vs SendModel's many local updates).
//
// Definitions (all interval unions are over virtual time):
//
//   - step span: [min start, max end] over the step's span events;
//   - driver: union of busy intervals (compute phases and message halves,
//     barriers excluded) on driver nodes;
//   - compute: max over worker nodes of the union of compute-phase spans
//     (compute, aggregate, update, encode) — the compute critical path;
//   - network: max over worker nodes of the union of message-half spans —
//     the communication critical path;
//   - wait: span − driver − compute − network, clamped at zero: time no
//     resource on the critical path was busy (barrier skew, SSP gating,
//     stragglers).
//
// The three busy terms can overlap in time (the driver receives while a
// worker computes), so their shares are an attribution, not a partition;
// what makes them comparable across systems is that each is a lower bound
// on the step's span and the dominant one names the resource that must
// shrink for the step to get faster.

// chanOrder is the canonical channel iteration order for reports.
var chanOrder = []Channel{ChanDriver, ChanShuffle, ChanBroadcast, ChanPS, ChanOther}

// encOrder is the canonical encoding iteration order for reports.
var encOrder = []Encoding{EncDense, EncSparse}

// computePhases are the span phases that count as computation on a node.
var computePhases = map[Phase]bool{
	PhaseCompute:  true,
	PhaseAgg:      true,
	PhaseUpdate:   true,
	PhaseEncode:   true,
	PhaseSchedule: true,
}

// StepStat is the attribution of one superstep.
type StepStat struct {
	Step    int     `json:"step"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	Driver  float64 `json:"driver"`  // driver busy time
	Compute float64 `json:"compute"` // worker compute critical path
	Network float64 `json:"network"` // worker communication critical path
	Wait    float64 `json:"wait"`
	Bytes   float64 `json:"bytes"`
	Updates int64   `json:"updates"`
	Loss    float64 `json:"loss"`
	HasLoss bool    `json:"has_loss,omitempty"`
	// Dominant is the largest of driver/network/compute/wait for this step.
	Dominant string `json:"dominant"`
}

// Span returns the step's virtual duration.
func (s *StepStat) Span() float64 { return s.End - s.Start }

// Report is the run-level attribution.
type Report struct {
	System  string `json:"system,omitempty"`
	Dataset string `json:"dataset,omitempty"`
	Steps   int    `json:"steps"`

	Span         float64 `json:"span"` // summed step spans
	DriverShare  float64 `json:"driver_share"`
	NetworkShare float64 `json:"network_share"`
	ComputeShare float64 `json:"compute_share"`
	WaitShare    float64 `json:"wait_share"`

	TotalBytes     float64              `json:"total_bytes"`
	BytesByChannel map[Channel]float64  `json:"bytes_by_channel"`
	BytesByEnc     map[Encoding]float64 `json:"bytes_by_enc"`

	UpdatesPerStep float64 `json:"updates_per_step"`
	// UpdatePattern is "single-update" (B1, SendGradient) or
	// "many-local-updates" (SendModel).
	UpdatePattern string `json:"update_pattern"`
	// DominantCost is "driver", "network", "compute", or "wait".
	DominantCost string `json:"dominant_cost"`
	// Classification spells out the bottleneck narrative in the paper's
	// B1/B2 vocabulary.
	Classification string `json:"classification"`

	PerStep []StepStat `json:"per_step"`
}

// interval is a [lo, hi] virtual-time range.
type interval struct{ lo, hi float64 }

// unionLen returns the total length of the union of the intervals.
func unionLen(iv []interval) float64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
	total, lo, hi := 0.0, iv[0].lo, iv[0].hi
	for _, v := range iv[1:] {
		if v.lo > hi {
			total += hi - lo
			lo, hi = v.lo, v.hi
		} else if v.hi > hi {
			hi = v.hi
		}
	}
	return total + hi - lo
}

// stepAccum collects one step's raw intervals before attribution.
type stepAccum struct {
	stat      StepStat
	hasExtent bool
	driver    []interval
	compute   map[string][]interval
	network   map[string][]interval
	nodeOrder []string
	seenNode  map[string]bool
}

func isDriverNode(node string) bool { return strings.HasPrefix(node, "driver") }

// Attribute computes the bottleneck attribution of an event log.
func Attribute(events []Event) *Report {
	r := &Report{
		BytesByChannel: map[Channel]float64{},
		BytesByEnc:     map[Encoding]float64{},
	}
	accums := map[int]*stepAccum{}
	var stepKeys []int
	get := func(step int) *stepAccum {
		a, ok := accums[step]
		if !ok {
			a = &stepAccum{
				stat:     StepStat{Step: step},
				compute:  map[string][]interval{},
				network:  map[string][]interval{},
				seenNode: map[string]bool{},
			}
			accums[step] = a
			stepKeys = append(stepKeys, step)
		}
		return a
	}
	var totalUpdates int64
	for _, e := range events {
		switch e.Phase {
		case PhaseMeta:
			if k, v, ok := strings.Cut(e.Note, "="); ok {
				switch k {
				case "system":
					r.System = v
				case "dataset":
					r.Dataset = v
				}
			}
			continue
		case PhaseStep:
			continue
		case PhaseEval:
			a := get(e.Step)
			a.stat.Loss, a.stat.HasLoss = e.Loss, true
			continue
		case PhaseUpdates:
			get(e.Step).stat.Updates += e.Count
			totalUpdates += e.Count
			continue
		case PhaseCausalFork, PhaseCausalBarrier, PhaseCausalSpec:
			// causal-graph bookkeeping: a barrier event's span is the
			// participant's wait, which the residual already measures —
			// counting it here would double-book wait as busy time
			continue
		}
		a := get(e.Step)
		if !a.hasExtent || e.Start < a.stat.Start {
			a.stat.Start = e.Start
		}
		if !a.hasExtent || e.End > a.stat.End {
			a.stat.End = e.End
		}
		a.hasExtent = true
		if e.Phase == PhaseStage {
			continue // extent only: the stage span aggregates its inner phases
		}
		if e.Dir == DirSend {
			a.stat.Bytes += e.Bytes
			r.TotalBytes += e.Bytes
			r.BytesByChannel[e.Chan] += e.Bytes
			enc := e.Enc
			if enc == "" {
				enc = EncDense
			}
			r.BytesByEnc[enc] += e.Bytes
		}
		iv := interval{e.Start, e.End}
		switch {
		case isDriverNode(e.Node):
			if e.Dir != "" || computePhases[e.Phase] {
				a.driver = append(a.driver, iv)
			}
		case e.Dir != "":
			a.network[e.Node] = append(a.network[e.Node], iv)
		case computePhases[e.Phase]:
			a.compute[e.Node] = append(a.compute[e.Node], iv)
		}
		if !a.seenNode[e.Node] {
			a.seenNode[e.Node] = true
			a.nodeOrder = append(a.nodeOrder, e.Node)
		}
	}

	sort.Ints(stepKeys)
	var sumDriver, sumNet, sumCompute, sumWait float64
	for _, step := range stepKeys {
		a := accums[step]
		if !a.hasExtent {
			continue // counter-only step (no spans): nothing to attribute
		}
		st := &a.stat
		st.Driver = unionLen(a.driver)
		for _, node := range a.nodeOrder {
			if c := unionLen(a.compute[node]); c > st.Compute {
				st.Compute = c
			}
			if n := unionLen(a.network[node]); n > st.Network {
				st.Network = n
			}
		}
		st.Wait = st.Span() - st.Driver - st.Compute - st.Network
		if st.Wait < 0 {
			st.Wait = 0
		}
		st.Dominant = dominant(st.Driver, st.Network, st.Compute, st.Wait)
		r.Span += st.Span()
		sumDriver += st.Driver
		sumNet += st.Network
		sumCompute += st.Compute
		sumWait += st.Wait
		r.PerStep = append(r.PerStep, *st)
		r.Steps++
	}
	if r.Span > 0 {
		r.DriverShare = sumDriver / r.Span
		r.NetworkShare = sumNet / r.Span
		r.ComputeShare = sumCompute / r.Span
		r.WaitShare = sumWait / r.Span
	}
	if r.Steps > 0 {
		r.UpdatesPerStep = float64(totalUpdates) / float64(r.Steps)
	}
	if r.UpdatesPerStep <= 1.5 {
		r.UpdatePattern = "single-update"
	} else {
		r.UpdatePattern = "many-local-updates"
	}
	r.DominantCost = dominant(r.DriverShare, r.NetworkShare, r.ComputeShare, r.WaitShare)
	r.Classification = classify(r.DominantCost, r.UpdatePattern)
	return r
}

// dominant names the largest of the four attribution terms; ties break in
// the fixed order driver > network > compute > wait, so the result is
// deterministic.
func dominant(driver, network, compute, wait float64) string {
	best, name := driver, "driver"
	if network > best {
		best, name = network, "network"
	}
	if compute > best {
		best, name = compute, "compute"
	}
	if wait > best {
		name = "wait"
	}
	return name
}

// classify renders the paper's bottleneck narrative for the dominant cost
// and update pattern.
func classify(dominantCost, updatePattern string) string {
	b1 := updatePattern == "single-update"
	switch dominantCost {
	case "driver":
		if b1 {
			return "B1+B2: single-update SendGradient serialized through the driver"
		}
		return "B2: driver-centric aggregation serializes the model traffic"
	case "network":
		return "network-bound: collective/shuffle traffic dominates the critical path"
	case "compute":
		return "compute-bound: local gradient/model work dominates the critical path"
	}
	return "wait-bound: barrier skew, stragglers, or SSP gating dominate"
}

// maxStepRows bounds the per-step table in Text.
const maxStepRows = 24

// Text renders the report as a stable, diffable plain-text table (the
// golden-file format of make obs).
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bottleneck attribution")
	if r.System != "" {
		fmt.Fprintf(&b, ": system=%s", r.System)
	}
	if r.Dataset != "" {
		fmt.Fprintf(&b, " dataset=%s", r.Dataset)
	}
	fmt.Fprintf(&b, "\nsteps=%d span=%.6fs\n", r.Steps, r.Span)
	fmt.Fprintf(&b, "shares of step span (overlapping lower bounds, not a partition):\n")
	fmt.Fprintf(&b, "  driver   %.4f\n", r.DriverShare)
	fmt.Fprintf(&b, "  network  %.4f\n", r.NetworkShare)
	fmt.Fprintf(&b, "  compute  %.4f\n", r.ComputeShare)
	fmt.Fprintf(&b, "  wait     %.4f\n", r.WaitShare)
	fmt.Fprintf(&b, "bytes: total=%.0f\n", r.TotalBytes)
	for _, ch := range chanOrder {
		if v := r.BytesByChannel[ch]; v > 0 {
			fmt.Fprintf(&b, "  channel %-9s %.0f\n", ch, v)
		}
	}
	for _, enc := range encOrder {
		if v := r.BytesByEnc[enc]; v > 0 {
			fmt.Fprintf(&b, "  enc     %-9s %.0f\n", enc, v)
		}
	}
	fmt.Fprintf(&b, "updates/step: %.2f -> %s\n", r.UpdatesPerStep, r.UpdatePattern)
	fmt.Fprintf(&b, "dominant cost: %s\n", r.DominantCost)
	fmt.Fprintf(&b, "classification: %s\n", r.Classification)
	if len(r.PerStep) > 0 {
		fmt.Fprintf(&b, "per-step:\n")
		fmt.Fprintf(&b, "  %5s %12s %12s %12s %12s %12s %10s %8s %s\n",
			"step", "span", "driver", "network", "compute", "wait", "bytes", "updates", "dominant")
		rows := r.PerStep
		truncated := 0
		if len(rows) > maxStepRows {
			truncated = len(rows) - maxStepRows
			rows = rows[:maxStepRows]
		}
		for i := range rows {
			st := &rows[i]
			fmt.Fprintf(&b, "  %5d %12.6f %12.6f %12.6f %12.6f %12.6f %10.0f %8d %s\n",
				st.Step, st.Span(), st.Driver, st.Network, st.Compute, st.Wait, st.Bytes, st.Updates, st.Dominant)
		}
		if truncated > 0 {
			fmt.Fprintf(&b, "  ... (%d more steps)\n", truncated)
		}
	}
	return b.String()
}
