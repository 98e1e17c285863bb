// Package obs is the structured telemetry layer of the simulator: a
// deterministic superstep event log, a metrics registry with Prometheus-style
// text exposition, and a bottleneck attribution report that reproduces the
// paper's Section-3 breakdown (compute vs communication vs wait, and the
// B1/B2 bottleneck classification) as a machine-readable artifact.
//
// # Determinism contract
//
// Everything in this package is driven by the virtual clock: events carry
// des virtual-time spans, histograms observe virtual durations, and no code
// path consults the wall clock (the determinism analyzer enforces this).
// Recording happens exclusively from DES process code — never from offloaded
// pure closures (the obspure analyzer enforces that) — so the event sequence
// is a pure function of the simulated execution and is byte-identical across
// runs. Turning the sink on or off changes no training numeric, no simulated
// byte, and no virtual timestamp: hooks only observe, they never charge.
//
// # Wiring
//
// The sink is chosen once per run and carried by the run's network: an
// entry point picks it — normally Active, the sink Enable installed — and
// hands it to simnet.New (through engine.NewCluster and clusters.Spec.Build),
// and every instrumentation hook in simnet, engine, ps and the
// trainers reads it from the network it runs on. All Sink methods are
// nil-safe, so a run built with a nil sink records nothing and the hooks
// call the sink's methods unconditionally. The event log is the run's one
// telemetry record: the Figure-3 gantt (GanttFromEvents), the bottleneck
// attribution and the metrics registry are all functions of it.
//
// # Write path and read path
//
// Recording an event is one append under the sink's mutex; everything a
// reader needs is computed when it reads. Three contracts keep that split
// honest:
//
//   - The log is stored in fixed-capacity blocks that are append-only and
//     never rewritten: a recorded event is not copied, moved or modified
//     again. A reader (Events, WriteJSONL, the live HTTP endpoint in
//     internal/obs/obshttp) copies the block headers under the mutex and
//     reads the events outside it, concurrently with the running simulation.
//   - The metrics registry is a fold over the log, caught up on read:
//     Sink.Registry folds the events recorded since the last read, in log
//     order, before it returns. A live sink and a replayed log
//     (SinkFromEvents) run the same fold over the same events, so their
//     expositions are byte-identical, whenever and however often either is
//     read.
//   - The JSONL writer is a hand-written encoder of the fixed Event schema
//     that is exact against encoding/json — the committed logs and goldens
//     were written by encoding/json and must not change by a byte. Only a
//     string with a character that needs escaping is handed to encoding/json
//     itself; ReadJSONL decodes with encoding/json.
package obs

import (
	"strconv"
	"sync/atomic"
)

// Phase classifies what an event's virtual-time span was spent on. Message
// events (Dir set) use the collective phases; span events (Dir empty) use
// the compute phases.
type Phase string

// Phases, mirroring the execution structure of the simulated systems.
const (
	PhaseCompute   Phase = "compute"    // gradient/model computation over local data
	PhaseAgg       Phase = "aggregate"  // folding partials or models
	PhaseUpdate    Phase = "update"     // applying an update to a model
	PhaseEncode    Phase = "encode"     // sparse encode/decode of a model-delta message
	PhaseBarrier   Phase = "barrier"    // waiting at a BSP barrier
	PhaseSchedule  Phase = "schedule"   // driver scheduling work
	PhasePipeline  Phase = "pipeline"   // pipelined collective stalled on a chunk (observed, never charged)
	PhaseFeatBlock Phase = "feat-block" // feature-major gradient block produced for an overlapped collective (observed, never charged)

	PhaseTreeAgg       Phase = "tree-agg"       // MLlib treeAggregate legs (leaf→aggregator→driver)
	PhaseReduceScatter Phase = "reduce-scatter" // AllReduce phase 1 shuffle
	PhaseAllGather     Phase = "allgather"      // AllReduce phase 2 shuffle
	PhaseBroadcast     Phase = "broadcast"      // model broadcast (task payload or torrent chunks)
	PhaseShuffle       Phase = "shuffle"        // generic ByKey shuffle traffic
	PhasePSPull        Phase = "ps-pull"        // parameter-server model pull (request + ranges)
	PhasePSPush        Phase = "ps-push"        // parameter-server delta push
	PhaseComm          Phase = "comm"           // unclassified communication

	PhaseStage   Phase = "stage"   // one whole BSP stage, recorded at the driver
	PhaseStep    Phase = "step"    // superstep transition marker (Step is the new step)
	PhaseEval    Phase = "eval"    // out-of-band objective evaluation (carries Loss)
	PhaseUpdates Phase = "updates" // model-update counter event (carries Count)
	PhaseMeta    Phase = "meta"    // run metadata (Note holds key=value)

	// Causal-trace bookkeeping phases, emitted only under EnableCausal.
	// Like step/eval/updates they describe the run rather than node activity:
	// they book no phase seconds, no bytes, and are excluded from bottleneck
	// attribution and gantt reconstruction. internal/causal consumes them to
	// close the happens-before graph where message edges alone cannot:
	// fork events tie a child process's chain to its parent's, barrier
	// events tie every participant's release to the slowest arrival, and
	// spec events carry the cluster's rates so the what-if re-timer can
	// recompute message service times from bytes.
	PhaseCausalFork    Phase = "cp-fork"    // Proc = parent, Grp = child process identity, Start = End = fork time
	PhaseCausalBarrier Phase = "cp-barrier" // Proc = participant, Grp = "name@gen", Start = arrival, End = release
	PhaseCausalSpec    Phase = "cp-spec"    // Node = machine ("" = network config), Note = key=value rates
)

// Channel classifies which logical link a message used, following the
// paper's byte accounting: driver traffic (task dispatch and results),
// executor-to-executor shuffle traffic, broadcast traffic, and
// parameter-server traffic.
type Channel string

// Channels.
const (
	ChanDriver    Channel = "driver"
	ChanShuffle   Channel = "shuffle"
	ChanBroadcast Channel = "broadcast"
	ChanPS        Channel = "ps"
	ChanOther     Channel = "other"
)

// Dir marks the half of a message an event describes: its serialization
// through the sender's outbound NIC or through the receiver's inbound NIC.
type Dir string

// Directions. Span (non-message) events leave Dir empty.
const (
	DirSend Dir = "s"
	DirRecv Dir = "r"
)

// Encoding says how a message's payload was coded on the simulated wire.
type Encoding string

// Encodings.
const (
	EncDense  Encoding = "dense"
	EncSparse Encoding = "sparse"
)

// sparseable is implemented by payloads that know whether they shipped in
// sparse index–value form (sparse.Enc and the wrapper messages around it).
type sparseable interface{ IsSparse() bool }

// EncodingOf inspects a message payload structurally: payloads implementing
// IsSparse() report their own coding, everything else is dense.
func EncodingOf(payload any) Encoding {
	if s, ok := payload.(sparseable); ok && s.IsSparse() {
		return EncSparse
	}
	return EncDense
}

// ClassifyTag maps a simnet mailbox tag to the phase and channel of the
// collective that uses it. The tag namespace is engine-defined: "task" and
// "res:<stage>" are the driver's dispatch/result legs, "agg:<name>" the
// treeAggregate legs, "xch:rs:<name>"/"xch:ag:<name>" the AllReduce shuffle
// rounds, "xch:bc<step>" the torrent-broadcast chunks, other "xch:" tags the
// generic ByKey shuffles, "ps." the parameter-server mailboxes (whose
// pull/push split is supplied explicitly by internal/ps, since both request
// kinds share one server mailbox tag).
func ClassifyTag(tag string) (Phase, Channel) {
	switch {
	case tag == "task":
		return PhaseBroadcast, ChanDriver
	case hasPrefix(tag, "res:"):
		return PhaseTreeAgg, ChanDriver
	case hasPrefix(tag, "agg:"):
		return PhaseTreeAgg, ChanShuffle
	case hasPrefix(tag, "xch:rs:"):
		return PhaseReduceScatter, ChanShuffle
	case hasPrefix(tag, "xch:ag:"):
		return PhaseAllGather, ChanShuffle
	case hasPrefix(tag, "xch:bc"):
		return PhaseBroadcast, ChanBroadcast
	case hasPrefix(tag, "xch:"):
		return PhaseShuffle, ChanShuffle
	case hasPrefix(tag, "ps."):
		return PhaseComm, ChanPS
	}
	return PhaseComm, ChanOther
}

// hasPrefix avoids importing strings for two-byte checks in the per-message
// hot path.
func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// active is the installed sink; nil means telemetry is off (the default).
var active atomic.Pointer[Sink]

// Enable installs a fresh sink and returns it. Like par.Configure and
// sparse.Configure this is a process-wide switch intended to be flipped
// between runs, not during one.
func Enable() *Sink {
	s := NewSink()
	active.Store(s)
	return s
}

// EnableCausal installs a fresh sink with causal tracing on and returns it.
// A causal sink records the same events Enable's would, enriched with the
// des process identity of each span and message half, a message id pairing
// every send with its recv, and the causal-only bookkeeping records
// (cp-fork, cp-barrier, cp-spec) that internal/causal turns into a
// happens-before graph. Like recording itself, the enrichment observes and
// never charges: simulated times, bytes, and every training numeric are
// bit-identical with causal tracing on, off, or disabled entirely.
func EnableCausal() *Sink {
	s := newCausalSink()
	active.Store(s)
	return s
}

func newCausalSink() *Sink {
	s := NewSink()
	s.causal = true
	return s
}

// CausalSink returns the installed sink when it records causally, and
// otherwise a fresh causal sink that is not installed. The Figure-3 runs
// record into it whatever the telemetry flags say: the gantt CSV's note
// column holds each message's tag, which only a causal event keeps.
func CausalSink() *Sink {
	if s := Active(); s.Causal() {
		return s
	}
	return newCausalSink()
}

// Disable uninstalls the sink; subsequent Active calls return nil (whose
// methods are all no-ops).
func Disable() { active.Store(nil) }

// Active returns the installed sink, or nil when telemetry is off.
func Active() *Sink { return active.Load() }

// CausalProcID renders a des process identity for the causal fields: the
// process name qualified by its spawn id, which stays unique when several
// helpers share a name (e.g. the per-collective sender forks). The hooks do
// not call it per event: des.Proc.Ident builds the same string once per
// process (des cannot import this package; a test here pins the two equal).
func CausalProcID(name string, id int) string {
	return name + "#" + strconv.Itoa(id)
}
