package main

import (
	"math"
	"runtime/metrics"
	"strings"
	"syscall"
)

// probeRounds is how many times a traced run repeats each probe; a unit cost
// is the median.
const probeRounds = 3

// tracedRep is one repetition run under the tracer, with the seconds its
// spans took summed by name.
type tracedRep struct {
	o      repOutcome
	outs   []runOutcome
	byName map[string]float64
}

func (r *run) tracedRepetition(sink bool) tracedRep {
	from := len(r.tr.spans)
	o, outs := r.repetition(sink, r.tr)
	by := map[string]float64{}
	for i := from; i < len(r.tr.spans); i++ {
		by[r.tr.spans[i].Name] += r.tr.seconds(i)
	}
	return tracedRep{o: o, outs: outs, byName: by}
}

// medianTrainSeconds is the median, over the repetitions, of the host time of
// a repetition's Train calls alone.
func medianTrainSeconds(reps []tracedRep) float64 {
	totals := make([]float64, len(reps))
	for i, t := range reps {
		for name, sec := range t.byName {
			if strings.HasSuffix(name, ".train") {
				totals[i] += sec
			}
		}
	}
	return median(totals)
}

// gcCounters reads the cumulative GC and total CPU seconds and the number of
// completed GC cycles.
func gcCounters() (gcCPU, totalCPU float64, cycles uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

// measureLayers is the traced run. It repeats the workload in pairs, one
// repetition without and one with the tracer, so that the tracing overhead is
// measured inside one process; then repetitions with the causal sink toggled
// against the workload's own setting, for the cost of telemetry and the
// shares of the simulated clock; then the per-layer probes; and it ends with
// the budget table.
func (r *run) measureLayers() {
	w := r.w
	rounds, pairs, toggled := probeRounds, w.reps/3, 2
	if pairs < 2 {
		pairs = 2
	}
	if r.opt.smoke {
		rounds, pairs, toggled = 1, 1, 1
	}

	gc0, cpu0, cyc0 := gcCounters()
	var untraced, traced []float64
	var own []tracedRep // repetitions at the workload's own sink setting
	timedReps(r.opt.seconds, pairs, 2, func() {
		o, _ := r.repetition(w.causal, nil)
		untraced = append(untraced, o.wall)
		t := r.tracedRepetition(w.causal)
		traced = append(traced, t.o.wall)
		own = append(own, t)
	})
	gc1, cpu1, cyc1 := gcCounters()
	r.res.Reps = len(untraced) + len(traced)

	var other []tracedRep // the sink setting the workload does not use
	for i := 0; i < toggled; i++ {
		other = append(other, r.tracedRepetition(!w.causal))
	}
	sinkOn, sinkOff := own, other
	if !w.causal {
		sinkOn, sinkOff = other, own
	}

	// Trainers: every Train call of the repetition, by trainer layer.
	for _, layer := range trainerLayers {
		var wall []float64
		simS, steps := 0.0, 0
		for i, ts := range w.runs {
			if ts.layer != layer {
				continue
			}
			for _, t := range own {
				wall = append(wall, t.byName[layer+".train"])
			}
			simS += r.refRuns[i].simS
			steps += r.refRuns[i].steps
		}
		if wall == nil {
			wall = []float64{0}
		}
		r.set(layer+".wall_s", wall)
		r.setOne(layer+".sim_s", simS)
		r.setOne(layer+".steps", float64(steps))
	}

	// Telemetry and causal analysis, from the repetitions that recorded logs.
	var events, nodes, logBytes float64
	for _, out := range sinkOn[0].outs {
		events += float64(out.log.events)
		nodes += float64(out.log.nodes)
		logBytes += float64(out.log.logBytes)
	}
	per := func(span string, units float64) []float64 {
		var s []float64
		for _, t := range sinkOn {
			s = append(s, t.byName[span]*1e9/units)
		}
		return s
	}
	r.setOne("obs.events_per_rep", events)
	r.setOne("obs.log_mb", logBytes/1e6)
	r.setOne("obs.ns_per_event", (medianTrainSeconds(sinkOn)-medianTrainSeconds(sinkOff))*1e9/events)
	r.set("obs.attribute_ns_per_event", per("obs.attribute", events))
	r.set("obs.write_ns_per_event", per("obs.write", events))
	r.setOne("causal.nodes", nodes)
	r.set("causal.analyze_ns_per_node", per("causal.analyze", nodes))
	r.set("causal.critpath_ns_per_node", per("causal.critpath", nodes))
	r.set("causal.retime_ns_per_node", per("causal.retime", nodes))

	// The simulated clock: where the modelled cluster's time went, weighted
	// over the repetition's runs by their summed step spans.
	var span, driver, network, compute, wait, crit float64
	for _, out := range sinkOn[0].outs {
		l := out.log
		span += l.span
		driver += l.driver * l.span
		network += l.network * l.span
		compute += l.compute * l.span
		wait += l.wait * l.span
		crit += l.critDriver * l.span
	}
	r.setOne("sim.driver_share", driver/span)
	r.setOne("sim.network_share", network/span)
	r.setOne("sim.compute_share", compute/span)
	r.setOne("sim.wait_share", wait/span)
	r.setOne("sim.critpath_driver_share", crit/span)

	// Runtime: the collector's share of CPU over the paired repetitions, and
	// what the benchmark's own spans cost.
	r.setOne("runtime.gc_cpu_share", (gc1-gc0)/(cpu1-cpu0))
	r.setOne("runtime.gc_cycles_per_rep", float64(cyc1-cyc0)/float64(r.res.Reps))
	r.set("runtime.wall_untraced_s", untraced)
	r.set("runtime.wall_traced_s", traced)
	r.setOne("runtime.trace_overhead", median(traced)/median(untraced))

	r.probeLayers(rounds)

	var ru syscall.Rusage
	peak := 0.0
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		peak = float64(ru.Maxrss) / 1e3 // Linux reports kilobytes
	}
	r.setOne("runtime.peak_rss_mb", peak)

	r.setExact()
	r.res.Budget = r.budget(median(untraced), events, nodes)
	// Last, so that the probes' self-checks count.
	r.setOne("failed_share", float64(r.res.Failed)/float64(r.res.Attempted))
}

// unitCost runs a probe for the given number of rounds and records the
// nanoseconds per unit of work of each round. A failed self-check of the
// probe counts as a failed check of the run.
func (r *run) unitCost(name string, rounds, parent int, probe func(tr *tracer, parent int) (sec, units float64, err error)) {
	var ns []float64
	for i := 0; i < rounds; i++ {
		sec, units, err := probe(r.tr, parent)
		r.check(err == nil, "probe %s: %v", name, err)
		ns = append(ns, sec*1e9/units)
	}
	r.set(name, ns)
}

// probeLayers measures the unit cost of every layer below the trainers.
func (r *run) probeLayers(rounds int) {
	root := r.tr.begin("probes", -1)
	defer r.tr.end(root)

	gen := r.tr.durations("data.generate", 0)
	for i := range gen {
		gen[i] *= 1e9 / float64(r.in.nnz)
	}
	r.set("data.generate_ns_per_nnz", gen)

	prep := r.tr.begin("probe/prepare", root)
	e, err := newProbeEnv(r.w, r.in, r.opt.seed, r.opt.smoke)
	r.tr.end(prep)
	r.check(err == nil, "probe inputs: %v", err)
	if err != nil {
		return
	}

	r.unitCost("data.partition_ns_per_nnz", rounds, root, e.partition)
	r.unitCost("data.sgd_ns_per_nnz", rounds, root, e.sgd)
	r.unitCost("data.grad_ns_per_nnz", rounds, root, e.grad)
	r.unitCost("data.gradrows_ns_per_nnz", rounds, root, e.gradRows)
	r.unitCost("data.gradstream_ns_per_nnz", rounds, root, e.gradStream)
	r.unitCost("data.readlibsvm_ns_per_nnz", rounds, root, e.readLibSVM)
	r.unitCost("train.eval_ns_per_nnz", rounds, root, e.eval)
	r.unitCost("vec.addscaled_ns_per_elem", rounds, root, e.addScaled)
	r.unitCost("sparse.encode_ns_per_elem", rounds, root, e.encode)
	r.unitCost("sparse.decode_ns_per_elem", rounds, root, e.decode)
	r.setOne("sparse.density", e.density())
	r.unitCost("des.ns_per_switch", rounds, root, e.desSwitch)
	r.unitCost("des.ns_per_event", rounds, root, e.desEvent)
	r.unitCost("des.ns_per_spawn", rounds, root, e.desSpawn)

	var allocs []float64
	r.unitCost("simnet.ns_per_message", rounds, root, func(tr *tracer, parent int) (float64, float64, error) {
		sec, msgs, mallocs, err := e.simnetAllToAll(tr, parent)
		allocs = append(allocs, mallocs/msgs)
		return sec, msgs, err
	})
	r.set("simnet.allocs_per_message", allocs)

	r.unitCost("engine.ns_per_task", rounds, root, e.engineTasks)
	r.unitCost("engine.exchange_ns_per_block", rounds, root, e.engineExchange)
	r.unitCost("engine.treeagg_ns_per_step", rounds, root, e.engineTreeAgg)

	var facts superstepFacts
	r.unitCost("allreduce.ns_per_superstep", rounds, root, func(tr *tracer, parent int) (float64, float64, error) {
		sec, steps, f, err := e.allreduceSupersteps(tr, parent)
		facts = f
		return sec, steps, err
	})
	r.setOne("allreduce.sim_s_per_superstep", facts.simS)
	r.setOne("allreduce.bytes_per_superstep", facts.bytes)
	r.checkSuperstep(e, facts)

	// A pull is what a pull-and-push clock costs beyond a push-only clock.
	var push, both []float64
	for i := 0; i < rounds; i++ {
		sec, units, err := e.psClocks(r.tr, root, false)
		r.check(err == nil, "probe ps push: %v", err)
		push = append(push, sec*1e9/units)
		sec, units, err = e.psClocks(r.tr, root, true)
		r.check(err == nil, "probe ps pull: %v", err)
		both = append(both, sec*1e9/units)
	}
	r.set("ps.ns_per_push", push)
	r.setOne("ps.ns_per_pull", math.Max(median(both)-median(push), 0))

	r.unitCost("par.ns_per_go", rounds, root, e.parGo)
}

// checkSuperstep holds the measured superstep against its closed forms. With
// neither sparse coding nor chunking on, every executor ships each of the
// other k-1 partitions once per round, 2·(k-1)·8·m bytes in all, and on a
// uniform cluster the simulated duration is within 1 % of the schedule's
// closed form. With sparse coding on, the bytes must fall below the dense
// count.
func (r *run) checkSuperstep(e *probeEnv, f superstepFacts) {
	k, m := float64(r.w.k), float64(e.dim())
	dense := 2 * (k - 1) * 8 * m
	if !f.dense {
		r.check(f.bytes > 0 && f.bytes < dense, "allreduce: %v bytes per superstep with sparse coding on, dense moves %v", f.bytes, dense)
		return
	}
	r.check(math.Float64bits(f.bytes) == math.Float64bits(dense), "allreduce: %v bytes per superstep, closed form 2(k-1)·8m = %v", f.bytes, dense)
	if form, ok := e.superstepClosedForm(); ok {
		r.check(math.Abs(f.simS-form) <= 0.01*form, "allreduce: superstep took %v simulated s, closed form %v", f.simS, form)
	}
}
