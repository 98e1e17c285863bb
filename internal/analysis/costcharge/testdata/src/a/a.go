// Corpus for the costcharge analyzer: interprocedural reachability from
// offloaded closures to obs telemetry and to simulation charges, the
// observe-never-charge contract on Observe* functions, and duplicate charge
// statements. Every telemetry and charge operation here is reached THROUGH
// at least one helper call, which is exactly what the syntactic obspure
// analyzer cannot see (obspure_regression_test asserts it stays silent on
// this whole file).
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

// SendPhase and WaitUntil are charge primitives declared elsewhere
// (bodyless, so the call graph resolves them as remote and classifies them
// by their unique names).
func SendPhase(dst int, bytes float64)
func WaitUntil(t float64)

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

func waitHelper() {
	WaitUntil(10)
}

func pureWork() float64 {
	return 1 + 1
}

// The closure reaches obs only transitively (closure → helperChain →
// logSpan → obs.Stage): obspure sees no obs call in the body and stays
// silent; costcharge follows the call graph.
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

// Observe* functions must never transitively consume simulated time.
func ObserveRound(n int) { // want `observe-path function ObserveRound transitively consumes simulated time or bytes \(waitHelper → WaitUntil\)`
	_ = n
	waitHelper()
}

// ObserveClean only records: no charge reachable, no finding.
func ObserveClean(n int) {
	logSpan()
	_ = n
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
