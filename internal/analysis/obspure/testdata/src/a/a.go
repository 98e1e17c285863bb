// Corpus for the obspure analyzer: telemetry calls inside offloaded
// closures (Task.Pure fields and assignments, ComputeAsyncKind/ChargeAsync
// arguments, par.Go/par.Do thunks) are flagged, including transitively
// through nested literals and through the obs.Active() chain, and including
// closures bound to a local name before being handed to the offload call
// (the pipeline scheduler's fold/decode style) and thunks reached through a
// selector — a struct field holding the literal, a method value, a named
// function (the build-once, submit-many style of an evaluator); telemetry on
// the simulation thread and offloaded closures without telemetry are clean.
package a

import (
	"mllibstar/internal/obs"
	"mllibstar/internal/par"
)

// task mirrors engine.Task's offload contract; the analyzer matches the
// Pure field by name, not by the defining package.
type task struct {
	Pure func() float64
}

// ComputeAsyncKind mirrors the simnet/engine offload entry points, which
// are matched by their (unique) names.
func ComputeAsyncKind(work float64, note string, fn func()) { fn() }

// ChargeAsync mirrors engine.Executor.ChargeAsync.
func ChargeAsync(work float64, fn func()) { fn() }

func inTaskLiteral() task {
	return task{
		Pure: func() float64 {
			obs.Active().Stage("n", "s", 0, 1) // want `obs\.Stage called inside Task\.Pure closure`
			return 1
		},
	}
}

func inPureAssignment() {
	var t task
	t.Pure = func() float64 {
		obs.Active().Updates(1, "n", 1, 0) // want `obs\.Updates called inside Task\.Pure closure`
		return 0
	}
	_ = t
}

func inComputeAsyncKind() {
	ComputeAsyncKind(100, "agg", func() {
		obs.Active().SetStep(3, 0.5) // want `obs\.SetStep called inside ComputeAsyncKind closure`
	})
}

func inChargeAsync() {
	ChargeAsync(100, func() {
		obs.Enable() // want `obs\.Enable called inside ChargeAsync closure`
	})
}

func inParGo() {
	h := par.Go(func() float64 {
		obs.Active().Meta("k", "v") // want `obs\.Meta called inside par\.Go closure`
		return 0
	})
	_ = h.Join()
}

func inParDoNested() {
	par.Do(func() {
		inner := func() {
			obs.Disable() // want `obs\.Disable called inside par\.Do closure`
		}
		inner()
	})
}

// Named closures handed over by identifier are resolved to their literals.
func inNamedParDo() {
	fold := func() {
		obs.Active().SetStep(1, 0) // want `obs\.SetStep called inside par\.Do closure fold`
	}
	par.Do(fold)
}

func inNamedVarDecl() {
	var decode = func() {
		obs.Active().Stage("n", "s", 0, 1) // want `obs\.Stage called inside ComputeAsyncKind closure decode`
	}
	ComputeAsyncKind(10, "dec", decode)
}

func inNamedReassigned() {
	work := func() {}
	work = func() {
		obs.Enable() // want `obs\.Enable called inside par\.Do closure work`
	}
	par.Do(work)
}

// evaluator mirrors a component that builds its thunk once and submits it
// once per step.
type evaluator struct {
	thunk func() float64
	obj   float64
}

// Struct-field thunks are resolved to the literals assigned to the field.
func inFieldThunk(ev *evaluator) {
	ev.thunk = func() float64 {
		obs.Active().Eval(1, "", 0, 0.5, 0) // want `obs\.Eval called inside par\.Go closure thunk`
		return 0
	}
	_ = par.Go(ev.thunk).Join()
}

// probe holds its thunk from construction on.
type probe struct{ run func() float64 }

func inFieldThunkLiteral() {
	pr := &probe{run: func() float64 {
		obs.Active().Meta("k", "v") // want `obs\.Meta called inside par\.Go closure run`
		return 0
	}}
	_ = par.Go(pr.run).Join()
}

func (ev *evaluator) evaluate() float64 {
	obs.Active().Eval(1, "", 0, ev.obj, 0) // want `obs\.Eval called inside par\.Go closure evaluate`
	return 0
}

// Method values are resolved to the method's declaration.
func inMethodValue(ev *evaluator) {
	_ = par.Go(ev.evaluate).Join()
}

func noisyWork() {
	obs.Active().SetStep(2, 0) // want `obs\.SetStep called inside par\.Do closure noisyWork`
}

// So are package-level functions handed over by name.
func inNamedFunc() {
	par.Do(noisyWork)
}

// Clean: the thunk computes, the commit — on the simulation thread, after
// the join — emits the event.
func (ev *evaluator) value() float64 { return ev.obj * 2 }

func commitOnSimThread(ev *evaluator) {
	v := par.Go(ev.value).Join()
	obs.Active().Eval(1, "", 0, v, 0)
}

// Clean: a named closure without telemetry offloads fine.
func namedPureFold() {
	fold := func() {}
	par.Do(fold)
}

// Clean: a named closure with telemetry that only ever runs on the
// simulation thread is not an offload target.
func namedOnSimThread() {
	report := func() { obs.Active().Meta("k", "v") }
	report()
}

// Clean: telemetry from the simulation thread is exactly what obs is for.
func onSimThread() {
	obs.Active().SetStep(1, 0)
	obs.Active().Stage("driver", "s", 0, 1)
}

// Clean: offloaded closures that stay numeric.
func pureIsPure() task {
	return task{Pure: func() float64 { return 2 }}
}

// Clean: a lowercase helper is not an offload entry point, so its closure
// runs on the caller's (simulation) goroutine.
func notOffload(fn func()) { fn() }

func inPlainHelper() {
	notOffload(func() {
		obs.Active().Meta("k", "v")
	})
}
