package train

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mllibstar/internal/glm"
	"mllibstar/internal/obs"
	"mllibstar/internal/par"
	"mllibstar/internal/vec"
)

func validParams() Params {
	return Params{Objective: glm.SVM(0.1), Eta: 0.1, MaxSteps: 10}
}

func TestValidateDefaults(t *testing.T) {
	p := validParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.EvalEvery != 1 || p.LocalPasses != 1 {
		t.Errorf("defaults not filled: %+v", p)
	}
}

func TestValidateRejections(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		field  string // must appear in the error
		mutate func(*Params)
	}{
		{"objective", func(p *Params) { p.Objective = glm.Objective{} }},
		{"Eta", func(p *Params) { p.Eta = 0 }},
		{"Eta", func(p *Params) { p.Eta = -1 }},
		{"Eta", func(p *Params) { p.Eta = nan }},
		{"Eta", func(p *Params) { p.Eta = inf }},
		{"MaxSteps", func(p *Params) { p.MaxSteps = 0 }},
		{"BatchFraction", func(p *Params) { p.BatchFraction = 1.5 }},
		{"BatchFraction", func(p *Params) { p.BatchFraction = -0.1 }},
		{"BatchFraction", func(p *Params) { p.BatchFraction = nan }},
		{"BatchFraction", func(p *Params) { p.BatchFraction = inf }},
		{"TargetObjective", func(p *Params) { p.TargetObjective = nan }},
		{"TargetObjective", func(p *Params) { p.TargetObjective = inf }},
		{"TargetObjective", func(p *Params) { p.TargetObjective = -0.5 }},
		{"MaxSimTime", func(p *Params) { p.MaxSimTime = nan }},
		{"MaxSimTime", func(p *Params) { p.MaxSimTime = inf }},
		{"MaxSimTime", func(p *Params) { p.MaxSimTime = -1 }},
		{"EvalEvery", func(p *Params) { p.EvalEvery = -1 }},
		{"LocalPasses", func(p *Params) { p.LocalPasses = -2 }},
		{"staleness", func(p *Params) { p.Staleness = -1 }},
		{"aggregators", func(p *Params) { p.Aggregators = -1 }},
	}
	for i, c := range cases {
		p := validParams()
		c.mutate(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("case %d: want error for %+v", i, p)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("case %d: error %q does not name %s", i, err, c.field)
		}
	}
}

// TestValidateZeroMeansDefault: zero stays "default" or "disabled" for every
// field the rejections above cover.
func TestValidateZeroMeansDefault(t *testing.T) {
	p := validParams()
	p.BatchFraction, p.TargetObjective, p.MaxSimTime, p.EvalEvery, p.LocalPasses = 0, 0, 0, 0, 0
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p = validParams()
	p.BatchFraction, p.TargetObjective, p.MaxSimTime, p.EvalEvery, p.LocalPasses = 1, 0.3, 12.5, 3, 2
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.EvalEvery != 3 || p.LocalPasses != 2 {
		t.Errorf("set values overwritten: %+v", p)
	}
}

func TestScheduleSelection(t *testing.T) {
	p := validParams()
	if s := p.Schedule(); s(0) != 0.1 || s(99) != 0.1 {
		t.Error("constant schedule wrong")
	}
	p.Decay = true
	s := p.Schedule()
	if s(0) != 0.1 || math.Abs(s(3)-0.05) > 1e-12 {
		t.Errorf("decay schedule wrong: %g %g", s(0), s(3))
	}
}

// oneRow is an evaluation set on which the hinge objective at w = {m} is
// max(0, 1−m).
func oneRow() []glm.Example {
	return []glm.Example{{Label: 1, X: vec.SparseFromMap(map[int32]float64{0: 1})}}
}

// poolOn forces the offload pool on (real goroutines, also on one CPU);
// poolOff selects the lazy inline path. Both restore the default.
func poolOn(t *testing.T) {
	par.ForceEnable(2)
	t.Cleanup(func() { par.Configure(true, 0) })
}

func poolOff(t *testing.T) {
	par.Configure(false, 0)
	t.Cleanup(func() { par.Configure(true, 0) })
}

// bothPools runs the test body once per pool mode.
func bothPools(t *testing.T, body func(t *testing.T)) {
	t.Run("pool=on", func(t *testing.T) { poolOn(t); body(t) })
	t.Run("pool=off", func(t *testing.T) { poolOff(t); body(t) })
}

func TestEvaluatorCadence(t *testing.T) {
	bothPools(t, func(t *testing.T) {
		ev := NewEvaluator("s", "d", glm.SVM(0), oneRow(), 3)
		w := []float64{0}
		for step, want := range []int{1, 1, 1, 2, 2, 2, 3} {
			if ev.Due(step) != (step%3 == 0) {
				t.Errorf("Due(%d) = %v", step, ev.Due(step))
			}
			ev.Record(step, float64(step), w)
			if ev.Curve.Len() != want {
				t.Errorf("after Record(%d): curve len = %d, want %d", step, ev.Curve.Len(), want)
			}
		}
		ev.Wait()
		for i, pt := range ev.Curve.Points {
			if pt.Step != 3*i || pt.Objective != 1 {
				t.Errorf("point %d = %+v", i, pt)
			}
		}
	})
}

func TestEvaluatorReached(t *testing.T) {
	bothPools(t, func(t *testing.T) {
		ev := NewEvaluator("s", "d", glm.SVM(0), oneRow(), 1)
		if ev.Reached() {
			t.Error("empty curve should not reach")
		}
		ev.StopAt(0.5)
		if ev.Record(0, 0, []float64{0}) || ev.Reached() { // hinge loss at zero model = 1
			t.Error("objective 1 should not reach 0.5")
		}
		if !ev.Record(1, 1, []float64{3}) { // margin 3: loss 0
			t.Error("objective 0 should reach 0.5")
		}
		if !ev.Reached() {
			t.Error("Reached should report the last Record's verdict")
		}
		if ev.Record(2, 2, []float64{0}) || ev.Reached() {
			t.Error("a later objective above the target is not reached")
		}

		ev = NewEvaluator("s", "d", glm.SVM(0), oneRow(), 1)
		if ev.Record(0, 0, []float64{5}) || ev.Reached() {
			t.Error("no target means never reached")
		}
	})
}

// gateLoss is a hinge loss whose Value announces itself on entered and then
// blocks until release is closed: the evaluation cannot end before the test
// says so.
type gateLoss struct {
	glm.Hinge
	entered chan struct{}
	release chan struct{}
}

func newGateLoss() gateLoss {
	return gateLoss{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (g gateLoss) Value(margin, y float64) float64 {
	g.entered <- struct{}{}
	<-g.release
	return g.Hinge.Value(margin, y)
}

// recordAsync runs ev.Record on its own goroutine, standing in for the
// simulation thread; the returned channel yields Record's result.
func recordAsync(ev *Evaluator, step int, w []float64) <-chan bool {
	done := make(chan bool, 1)
	go func() { done <- ev.Record(step, float64(step), w) }()
	return done
}

func within(t *testing.T, what string, ch <-chan bool) bool {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not happen", what)
		return false
	}
}

// TestEvaluatorOverlap: with no target and no sink, Record returns while the
// evaluation is still running, the point is already on the curve, and the
// caller may overwrite w at once.
func TestEvaluatorOverlap(t *testing.T) {
	poolOn(t)
	loss := newGateLoss()
	ev := NewEvaluator("s", "d", glm.Objective{Loss: loss, Reg: glm.None{}}, oneRow(), 1)
	w := []float64{0.25}
	if within(t, "Record returning before the evaluation ends", recordAsync(ev, 0, w)) {
		t.Error("reached without a target")
	}
	w[0] = 100 // the trainer's next step; must not reach the evaluation
	<-loss.entered
	if ev.Curve.Len() != 1 {
		t.Fatalf("curve len = %d when Record returned", ev.Curve.Len())
	}
	if pt := ev.Curve.Points[0]; !math.IsNaN(pt.Objective) || pt.Step != 0 {
		t.Errorf("uncommitted point = %+v, want the NaN placeholder", pt)
	}
	close(loss.release)
	ev.Wait()
	if got := ev.Curve.Points[0].Objective; got != 0.75 {
		t.Errorf("objective = %g, want 0.75 (the model at Record time)", got)
	}
	ev.Wait() // idempotent
	if ev.Curve.Len() != 1 || ev.Curve.Points[0].Objective != 0.75 {
		t.Errorf("second Wait changed the curve: %+v", ev.Curve.Points)
	}
}

// TestEvaluatorInlineWhenRead: a stop target or a telemetry sink reads the
// value at this step, so Record may not return before the evaluation ends.
func TestEvaluatorInlineWhenRead(t *testing.T) {
	for _, mode := range []string{"target", "sink"} {
		t.Run(mode, func(t *testing.T) {
			poolOn(t)
			loss := newGateLoss()
			var sink *obs.Sink
			if mode == "sink" {
				sink = obs.NewSink()
			}
			ev := NewEvaluatorInto(sink, "s", "d", glm.Objective{Loss: loss, Reg: glm.None{}}, oneRow(), 1)
			if mode == "target" {
				ev.StopAt(0.9)
			}
			done := recordAsync(ev, 0, []float64{0.25})
			<-loss.entered
			select {
			case <-done:
				t.Fatal("Record returned while the evaluation was still running")
			case <-time.After(50 * time.Millisecond):
			}
			close(loss.release)
			reached := within(t, "Record returning after the evaluation", done)
			if reached != (mode == "target") {
				t.Errorf("reached = %v", reached)
			}
			if got := ev.Curve.Points[0].Objective; got != 0.75 {
				t.Errorf("objective = %g when Record returned, want 0.75", got)
			}
			if sink != nil {
				evs := evalEvents(sink)
				if len(evs) != 1 || evs[0].Loss != 0.75 {
					t.Errorf("eval events when Record returned: %+v", evs)
				}
			}
		})
	}
}

// TestEvaluatorReachedJoins: Reached commits the evaluation in flight before
// it answers.
func TestEvaluatorReachedJoins(t *testing.T) {
	poolOn(t)
	loss := newGateLoss()
	ev := NewEvaluator("s", "d", glm.Objective{Loss: loss, Reg: glm.None{}}, oneRow(), 1)
	within(t, "Record returning", recordAsync(ev, 0, []float64{0.25}))
	<-loss.entered
	ev.StopAt(0.9) // after the fact, so the evaluation above stayed deferred
	done := make(chan bool, 1)
	go func() { done <- ev.Reached() }()
	select {
	case <-done:
		t.Fatal("Reached answered while the evaluation was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(loss.release)
	if !within(t, "Reached answering", done) {
		t.Error("0.75 <= 0.9 not reported as reached")
	}
	if got := ev.Curve.Points[0].Objective; got != 0.75 {
		t.Errorf("objective = %g after Reached, want 0.75", got)
	}
}

// countLoss counts Value calls, to tell when an evaluation ran.
type countLoss struct {
	glm.Hinge
	calls *atomic.Int64
}

func (c countLoss) Value(margin, y float64) float64 {
	c.calls.Add(1)
	return c.Hinge.Value(margin, y)
}

// TestEvaluatorLazyWhenPoolOff: with the pool off par.Go is lazy, so a
// deferred evaluation runs inline at the next Record or Wait, and one that
// is read runs inside its own Record — the sequential path, same bits.
func TestEvaluatorLazyWhenPoolOff(t *testing.T) {
	poolOff(t)
	var calls atomic.Int64
	obj := glm.Objective{Loss: countLoss{calls: &calls}, Reg: glm.None{}}
	ev := NewEvaluator("s", "d", obj, oneRow(), 1)
	w := []float64{0.25}
	ev.Record(0, 0, w)
	w[0] = 0.5
	if calls.Load() != 0 {
		t.Errorf("deferred evaluation ran inside Record (%d calls)", calls.Load())
	}
	ev.Record(1, 1, w)
	if calls.Load() != 1 {
		t.Errorf("%d evaluations after the second Record, want 1", calls.Load())
	}
	ev.Wait()
	if calls.Load() != 2 || ev.Curve.Points[0].Objective != 0.75 || ev.Curve.Points[1].Objective != 0.5 {
		t.Errorf("calls = %d, curve = %+v", calls.Load(), ev.Curve.Points)
	}

	calls.Store(0)
	ev = NewEvaluator("s", "d", obj, oneRow(), 1)
	ev.StopAt(0.1)
	ev.Record(0, 0, w)
	if calls.Load() != 1 || ev.Curve.Points[0].Objective != 0.5 {
		t.Errorf("with a target: calls = %d, curve = %+v", calls.Load(), ev.Curve.Points)
	}
}

func evalEvents(s *obs.Sink) []obs.Event {
	var out []obs.Event
	for _, e := range s.Events() {
		if e.Phase == obs.PhaseEval {
			out = append(out, e)
		}
	}
	return out
}

// TestEvaluatorCommitOrder: points are committed in step order, none is
// left NaN after Wait, and under a sink each Eval event sits in the log where
// the inline evaluation put it — before anything the trainer emits next.
func TestEvaluatorCommitOrder(t *testing.T) {
	bothPools(t, func(t *testing.T) {
		const steps = 40
		run := func(sink *obs.Sink) *Evaluator {
			ev := NewEvaluatorInto(sink, "s", "d", glm.SVM(0), oneRow(), 2)
			ev.Staleness = 3
			w := []float64{0}
			for step := 0; step <= steps; step++ {
				sink.SetStep(step, float64(step))
				w[0] = float64(step) / steps
				ev.Record(step, float64(step), w)
				sink.Updates(step, "n", 1, float64(step))
			}
			ev.Wait()
			return ev
		}
		check := func(ev *Evaluator) {
			t.Helper()
			if ev.Curve.Len() != steps/2+1 {
				t.Fatalf("curve len = %d", ev.Curve.Len())
			}
			for i, pt := range ev.Curve.Points {
				if want := 1 - float64(2*i)/steps; pt.Step != 2*i || pt.Time != float64(2*i) || pt.Objective != want {
					t.Errorf("point %d = %+v, want objective %g", i, pt, want)
				}
			}
		}
		check(run(nil))

		sink := obs.NewSink()
		ev := run(sink)
		check(ev)
		evals := 0
		events := sink.Events()
		for i, e := range events {
			if e.Phase != obs.PhaseEval {
				continue
			}
			pt := ev.Curve.Points[evals]
			if e.Step != pt.Step || e.Loss != pt.Objective || e.Start != pt.Time || e.Stale != 3 {
				t.Errorf("eval event %d = %+v, point %+v", evals, e, pt)
			}
			if next := events[i+1]; next.Phase != obs.PhaseUpdates || next.Step != e.Step {
				t.Errorf("eval event of step %d is followed by %+v, want that step's updates event", e.Step, next)
			}
			evals++
		}
		if evals != ev.Curve.Len() {
			t.Errorf("%d eval events for %d points", evals, ev.Curve.Len())
		}
	})
}

// panicLoss panics in every evaluation.
type panicLoss struct{ glm.Hinge }

func (panicLoss) Value(margin, y float64) float64 { panic("loss exploded") }

// TestEvaluatorPanicPropagates: a panic on the pool is re-raised on the
// simulation thread by whichever of Record and Wait joins the evaluation.
func TestEvaluatorPanicPropagates(t *testing.T) {
	bothPools(t, func(t *testing.T) {
		for _, join := range []string{"Record", "Wait"} {
			ev := NewEvaluator("s", "d", glm.Objective{Loss: panicLoss{}, Reg: glm.None{}}, oneRow(), 1)
			ev.Record(0, 0, []float64{0}) // deferred: nothing joined yet
			func() {
				defer func() {
					if r := recover(); r != "loss exploded" {
						t.Errorf("%s re-raised %v", join, r)
					}
				}()
				if join == "Record" {
					ev.Record(1, 1, []float64{0})
				} else {
					ev.Wait()
				}
				t.Errorf("%s swallowed the panic", join)
			}()
			ev.Wait() // the failed evaluation is gone; nothing to re-raise twice
		}
	})
}
