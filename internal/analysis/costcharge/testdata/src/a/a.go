// Corpus for the costcharge analyzer: interprocedural reachability from
// offloaded closures to obs telemetry and to simulation charges, and
// duplicate charge statements. Most telemetry and charge operations here
// are reached THROUGH at least one helper call; the struct-field thunks
// call obs directly.
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

// ComputeAsyncKind and ChargeAsync mirror the simnet/engine offload entry
// points, which are matched by their (unique) names.
func ComputeAsyncKind(work float64, note string, fn func()) { fn() }
func ChargeAsync(work float64, fn func())                   { fn() }

// SendPhase is a charge primitive declared elsewhere (bodyless, so the call
// graph holds no node for it, and it is classified by its unique name).
func SendPhase(dst int, bytes float64)

// logSpan is a helper whose telemetry the old syntactic check only sees
// when the obs call is written textually inside the closure.
func logSpan() {
	obs.Active().Stage("n", "s", 0, 1)
}

// helperChain adds a second hop so the witness chain in the diagnostic
// crosses two calls.
func helperChain() {
	logSpan()
}

func doSend() {
	SendPhase(1, 2048)
}

func pureWork() float64 {
	return 1 + 1
}

// The closure reaches obs only transitively (closure → helperChain →
// logSpan → obs.Stage): no obs call is written in its body, and costcharge
// follows the call graph.
func offloadedObsViaHelper() {
	ComputeAsyncKind(1, "agg", func() { // want `ComputeAsyncKind closure reaches obs telemetry \(helperChain → logSpan`
		helperChain()
	})
}

// A Task.Pure body that consumes simulated bytes through a helper.
func pureCharges() task {
	return task{
		Pure: func() float64 { // want `Task\.Pure closure reaches a simulation charge \(doSend → SendPhase\)`
			doSend()
			return 0
		},
	}
}

// emitter is a named function handed to the offload call by identifier.
func emitter() {
	logSpan()
}

func namedFunctionOffload() {
	ChargeAsync(5, emitter) // want `ChargeAsync function emitter reaches obs telemetry \(logSpan`
}

// A closure bound to a local before being handed over (the scheduler's
// fold/decode style).
func boundOffload() {
	fold := func() { doSend() }
	ComputeAsyncKind(2, "fold", fold) // want `ComputeAsyncKind closure fold reaches a simulation charge \(doSend → SendPhase\)`
}

// A part of an evaluation split with par.GoParts reaches a charge and obs
// through helpers.
func partsOffload() {
	par.GoParts(4, func(i int) { // want `par\.GoParts closure reaches a simulation charge \(doSend → SendPhase\)`
		doSend()
	}).Join()
	par.GoParts(2, func(i int) { // want `par\.GoParts closure reaches obs telemetry \(helperChain → logSpan`
		helperChain()
	}).Join()
}

// evaluator mirrors a component that builds its thunk once and submits it
// once per step.
type evaluator struct {
	thunk func() float64
}

// Struct-field thunks are resolved to the literals assigned to the field.
func inFieldThunk(ev *evaluator) {
	ev.thunk = func() float64 {
		obs.Active().Eval(1, "", 0, 0.5, 0)
		return 0
	}
	_ = par.Go(ev.thunk).Join() // want `par\.Go closure thunk reaches obs telemetry \(obs\.`
}

// probe holds its thunk from construction on.
type probe struct{ run func() float64 }

func inFieldThunkLiteral() {
	pr := &probe{run: func() float64 {
		obs.Active().Meta("k", "v")
		return 0
	}}
	_ = par.Go(pr.run).Join() // want `par\.Go closure run reaches obs telemetry \(obs\.`
}

// Two textually identical charge statements in one basic block account the
// same bytes twice; a different argument list is a different message.
func duplicateCharge() {
	SendPhase(3, 512)
	SendPhase(3, 512) // want `duplicate charge SendPhase\(3, 512\) in the same block accounts the same bytes/work twice`
	SendPhase(3, 1024)
}

// A broadcast loop charges once per iteration through a single statement —
// exactly once per message, not a duplicate.
func broadcastLoop() {
	for i := 0; i < 4; i++ {
		SendPhase(i, 256)
	}
}

// Offloaded compute with no telemetry and no charges is the contract being
// protected: clean.
func cleanOffload() {
	ComputeAsyncKind(1, "ok", func() { pureWork() })
}

// Telemetry on the simulation thread is fine.
func simThreadTelemetry() {
	helperChain()
}

// A scoped directive naming the analyzer suppresses the finding.
func suppressedOffload() {
	ChargeAsync(1, func() { //mlstar:nolint costcharge -- audited: flushes the final span after the pool join
		helperChain()
	})
}
