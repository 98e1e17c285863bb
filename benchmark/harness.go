package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// pinnedProcs is the GOMAXPROCS every run uses, recorded in the output.
const pinnedProcs = 2

// options are the settings of one run of one workload.
type options struct {
	seed     int64
	seconds  float64 // measure for this long; 0 = the workload's fixed repetition count
	traced   bool
	smoke    bool
	traceOut string
}

// value is one reported metric: a median over N samples with its quartiles,
// or, for an exact metric, a single value that every sample repeated.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// result is everything one run of one workload measured. The -json file holds
// a list of these; -compare and -selfcheck read them back.
type result struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Traced     bool                 `json:"traced"`
	Smoke      bool                 `json:"smoke"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Reps       int                  `json:"reps"`
	Inputs     string               `json:"inputs_fnv64"`
	Weights    string               `json:"weights_fnv64"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Failures   []string             `json:"failures,omitempty"`
	Metrics    map[string]value     `json:"metrics"`
	Samples    map[string][]float64 `json:"samples"`
	Budget     []budgetRow          `json:"budget,omitempty"`
}

// run is the state of one run while it measures.
type run struct {
	w   *workload
	opt options
	in  *inputs
	tr  *tracer
	res *result
	// ref is the fingerprint of the first repetition; every later one must
	// reproduce it bit for bit.
	ref     *repOutcome
	refRuns []runOutcome
}

// repOutcome is one repetition: host time and allocation, and the simulated
// results that must not depend on the host.
type repOutcome struct {
	wall, allocMB float64
	simS, commMB  float64
	objective     float64
	weights       uint64
}

func (r *run) check(ok bool, format string, args ...any) {
	r.res.Attempted++
	if !ok {
		r.res.Failed++
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, samples []float64) {
	def := defByName(name)
	q1, med, q3 := quartiles(samples)
	r.res.Metrics[name] = value{Value: med, Unit: def.unit, Q1: q1, Q3: q3, N: len(samples)}
	if !def.exact {
		r.res.Samples[name] = samples
	}
}

func (r *run) setOne(name string, v float64) { r.set(name, []float64{v}) }

// repetition runs the workload's fixed list of training runs once. sink
// overrides whether the runs record causal logs; tr may be nil.
func (r *run) repetition(sink bool, tr *tracer) (repOutcome, []runOutcome) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rep := tr.begin("repetition", -1)
	outs := make([]runOutcome, len(r.w.runs))
	var sim, bytes float64
	for i, ts := range r.w.runs {
		out, err := trainRun(r.in, r.w, ts, r.opt.seed, sink, tr, rep)
		r.check(err == nil, "%v", err)
		if err != nil {
			continue
		}
		r.check(!math.IsNaN(out.objFinal) && !math.IsInf(out.objFinal, 0) && out.objFinal < out.objFirst,
			"%s: objective %g -> %g is not a finite decrease", ts.system, out.objFirst, out.objFinal)
		if sink {
			r.check(math.Float64bits(out.log.retimed) == math.Float64bits(out.log.makespan),
				"%s: identity re-timing %v differs from the recorded makespan %v", ts.system, out.log.retimed, out.log.makespan)
		}
		outs[i] = out
		sim += out.simS
		bytes += out.bytes
	}
	tr.end(rep)
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	o := repOutcome{
		wall:      wall,
		allocMB:   float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		simS:      sim,
		commMB:    bytes / 1e6,
		objective: outs[0].objFinal,
		weights:   outs[len(outs)-1].weights,
	}
	if r.ref == nil {
		r.ref, r.refRuns = &o, outs
	} else {
		same := math.Float64bits(o.simS) == math.Float64bits(r.ref.simS) &&
			math.Float64bits(o.commMB) == math.Float64bits(r.ref.commMB) &&
			math.Float64bits(o.objective) == math.Float64bits(r.ref.objective) &&
			o.weights == r.ref.weights
		r.check(same, "repetition differs from the first: sim_s %v/%v comm_mb %v/%v objective %v/%v weights %016x/%016x",
			o.simS, r.ref.simS, o.commMB, r.ref.commMB, o.objective, r.ref.objective, o.weights, r.ref.weights)
	}
	return o, outs
}

// setupRounds is how many times a run builds its inputs; setup_s is the
// median.
const setupRounds = 5

// runWorkload measures one workload and returns its result.
func runWorkload(w *workload, opt options) (*result, error) {
	runtime.GOMAXPROCS(pinnedProcs)
	if opt.smoke {
		sw := w.smoke()
		w = &sw
	}
	if err := configureEngine(w.switches); err != nil {
		return nil, err
	}
	r := &run{w: w, opt: opt, res: &result{
		Workload: w.name, Seed: opt.seed, Traced: opt.traced, Smoke: opt.smoke,
		GOMAXPROCS: pinnedProcs,
		Metrics:    map[string]value{}, Samples: map[string][]float64{},
	}}
	if opt.traced {
		r.tr = newTracer()
	}

	rounds := setupRounds
	if opt.smoke {
		rounds = 1
	}
	var setup []float64
	for i := 0; i < rounds; i++ {
		r.in = nil // let the previous round's dataset go before building the next
		start := time.Now()
		r.in = generateInputs(w, opt.seed, r.tr, -1)
		setup = append(setup, time.Since(start).Seconds())
	}
	r.res.Inputs = fmt.Sprintf("%016x", hashInputs(r.in))

	// One untimed repetition lets caches fill and lazy set-up finish; it is
	// also the reference every timed repetition must reproduce.
	if !opt.smoke {
		r.repetition(w.causal, nil)
	}

	if opt.traced {
		r.measureLayers()
	} else {
		r.measureEndToEnd(setup)
	}
	r.res.Weights = fmt.Sprintf("%016x", r.ref.weights)
	if opt.traceOut != "" && r.tr != nil {
		if err := r.tr.writeFile(opt.traceOut); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// timedReps runs repetitions until the workload's count, or the requested
// measuring time, is used up. minReps keeps a median meaningful when one
// repetition takes a large part of the requested time.
func timedReps(seconds float64, fixed, minReps int, body func()) {
	start := time.Now()
	for n := 0; ; n++ {
		if seconds > 0 {
			if n >= minReps && time.Since(start).Seconds() >= seconds {
				return
			}
		} else if n >= fixed {
			return
		}
		body()
	}
}

// measureEndToEnd is the untraced run: the end-to-end metrics and nothing
// else, no span recorded anywhere.
func (r *run) measureEndToEnd(setup []float64) {
	var reps []repOutcome
	timedReps(r.opt.seconds, r.w.reps, 3, func() {
		o, _ := r.repetition(r.w.causal, nil)
		reps = append(reps, o)
	})
	r.res.Reps = len(reps)
	wall := make([]float64, len(reps))
	alloc := make([]float64, len(reps))
	for i, o := range reps {
		wall[i], alloc[i] = o.wall, o.allocMB
	}
	r.set("setup_s", setup)
	r.set("wall_s", wall)
	r.set("alloc_mb", alloc)
	r.setExact()
}

// setExact records the end-to-end metrics that do not depend on the host. A
// traced run records them too, unprinted, so that two runs of either kind can
// be held against each other.
func (r *run) setExact() {
	r.setOne("sim_s", r.ref.simS)
	r.setOne("comm_mb", r.ref.commMB)
	r.setOne("objective", r.ref.objective)
}
