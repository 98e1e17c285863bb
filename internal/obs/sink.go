package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// superstepBuckets are the histogram bounds for per-superstep virtual
// duration, spanning the sub-millisecond test clusters through the
// multi-second production-scale supersteps.
var superstepBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// blockEvents is the capacity of one storage block of the event log.
const blockEvents = 4096

// Sink accumulates the superstep event log and derives the metrics registry
// from it. Recording is one append: the log lives in fixed-capacity blocks,
// so an event, once recorded, is never copied or rewritten — a full block is
// followed by a fresh one, not regrown. The registry is a fold over the log,
// caught up when it is read (Registry), so a live sink and a JSONL log
// replayed through SinkFromEvents expose identical metrics by construction.
//
// Methods are nil-safe (a nil *Sink records nothing) so instrumentation
// sites call the run's sink unconditionally. The mutex exists for
// the live HTTP endpoint: the simulation writes from its single DES
// goroutine while obshttp readers snapshot concurrently. It guards only the
// block list; readers copy the block headers under it and read the events
// outside it, which is race-free because the elements below a snapshotted
// length are immutable. The fold state is guarded by the registry's own
// lock.
type Sink struct {
	mu     sync.Mutex
	blocks [][]Event    // every block but the last is full; a block's elements are written once, by the append that adds them
	step   atomic.Int64 // current superstep: stored by record on a step marker, read by the hooks (Step) without the lock

	reg       *Registry
	folded    int     // events already folded into reg; with stepStart and haveStep, guarded by reg.mu
	stepStart float64 // fold state: start of the superstep in progress at event folded-1
	haveStep  bool

	causal bool         // enrich events with causal identities (EnableCausal)
	mid    atomic.Int64 // message-id allocator; ids start at 1 so 0 means "no causal pairing"

	mSuperstep *Family // gauge: current superstep
	mStepDur   *Family // histogram: superstep virtual duration
	mBytes     *Family // counter: comm bytes by channel/enc (send side only)
	mMsgs      *Family // counter: comm messages by channel/enc (send side only)
	mPhaseSec  *Family // counter: virtual seconds by node/phase/dir
	mLoss      *Family // gauge: last recorded objective
	mStale     *Family // gauge: configured SSP staleness
	mUpdates   *Family // counter: model updates applied
	mVirtual   *Family // gauge: virtual clock at the last event

}

// NewSink returns an empty sink with its registry families declared. Most
// callers want Enable, which also installs the sink process-wide.
func NewSink() *Sink {
	reg := NewRegistry()
	return &Sink{
		reg:        reg,
		mSuperstep: reg.Gauge("mlstar_superstep", "current superstep (communication step) of the run"),
		mStepDur: reg.Histogram("mlstar_superstep_seconds",
			"virtual-time duration of completed supersteps", superstepBuckets),
		mBytes: reg.Counter("mlstar_comm_bytes_total",
			"simulated payload bytes sent, by channel and wire encoding", "channel", "enc"),
		mMsgs: reg.Counter("mlstar_comm_messages_total",
			"simulated messages sent, by channel and wire encoding", "channel", "enc"),
		mPhaseSec: reg.Counter("mlstar_phase_seconds_total",
			"virtual seconds spent, by node, phase, and message direction (empty dir = compute span)",
			"node", "phase", "dir"),
		mLoss:  reg.Gauge("mlstar_loss", "last evaluated objective value"),
		mStale: reg.Gauge("mlstar_ssp_staleness", "configured SSP staleness slack (0 = BSP)"),
		mUpdates: reg.Counter("mlstar_updates_total",
			"model updates applied, summed over nodes"),
		mVirtual: reg.Gauge("mlstar_virtual_seconds", "virtual clock at the last recorded event"),
	}
}

// snapshot returns the block headers of the log recorded so far. The caller
// may read the events without the lock; it must not write them.
func (s *Sink) snapshot() [][]Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]Event(nil), s.blocks...)
}

// logLen is the number of events in a snapshot.
func logLen(blocks [][]Event) int {
	if len(blocks) == 0 {
		return 0
	}
	return (len(blocks)-1)*blockEvents + len(blocks[len(blocks)-1])
}

// Registry returns the sink's metrics registry, caught up with the log: the
// events recorded since the last call are folded in first, in log order and
// under one hold of the registry lock, so every exposition is the registry
// of a prefix of the log.
func (s *Sink) Registry() *Registry {
	if s == nil {
		return nil
	}
	blocks := s.snapshot()
	s.reg.mu.Lock()
	defer s.reg.mu.Unlock()
	// A concurrent reader may have folded a later snapshot already; then
	// there is nothing left to do for this one.
	for n := logLen(blocks); s.folded < n; s.folded++ {
		s.fold(&blocks[s.folded/blockEvents][s.folded%blockEvents])
	}
	return s.reg
}

// Events returns a copy of the event log recorded so far.
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	blocks := s.snapshot()
	if len(blocks) == 0 {
		return nil
	}
	out := make([]Event, 0, logLen(blocks))
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// Len returns the number of events recorded so far.
func (s *Sink) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return logLen(s.blocks)
}

// WriteJSONL writes the event log recorded so far to w, block by block,
// without flattening it and without holding the sink lock while it encodes.
func (s *Sink) WriteJSONL(w io.Writer) error {
	if s == nil {
		return nil
	}
	jw := newJSONLWriter(w)
	for _, b := range s.snapshot() {
		if err := jw.write(b); err != nil {
			return err
		}
	}
	return jw.flush()
}

// Step returns the current superstep.
func (s *Sink) Step() int {
	if s == nil {
		return 0
	}
	return int(s.step.Load())
}

// Causal reports whether this sink enriches events with causal identities.
// Nil-safe like every Sink method, so instrumentation sites can gate the
// enrichment work on sink.Causal().
func (s *Sink) Causal() bool {
	if s == nil {
		return false
	}
	return s.causal
}

// NewMID allocates the next message id, or returns 0 when causal tracing is
// off — send sites call it unconditionally and a zero id simply leaves the
// event's MID field absent.
func (s *Sink) NewMID() int64 {
	if s == nil || !s.causal {
		return 0
	}
	return s.mid.Add(1)
}

// record appends an event to the log, noting the superstep a step marker
// opens. Caller holds no locks. This is the single ingestion path, shared by
// the live hooks and by SinkFromEvents replay; everything a reader derives
// from the log (the registry, attribution, the causal graph) is computed
// from what it appended.
func (s *Sink) record(e Event) {
	s.mu.Lock()
	last := len(s.blocks) - 1
	if last < 0 || len(s.blocks[last]) == blockEvents {
		s.blocks = append(s.blocks, make([]Event, 0, blockEvents))
		last++
	}
	s.blocks[last] = append(s.blocks[last], e)
	if e.Phase == PhaseStep {
		s.step.Store(int64(e.Step))
	}
	s.mu.Unlock()
}

// fold books one event into the registry. Caller holds the registry lock.
// Events are folded exactly once and in log order, so the float additions —
// and with them the exposition — do not depend on when the registry is read.
func (s *Sink) fold(e *Event) {
	if e.End > 0 {
		s.mVirtual.set(e.End)
	}
	switch {
	case e.Dir == DirSend:
		s.mBytes.add(e.Bytes, string(e.Chan), string(e.Enc))
		s.mMsgs.add(1, string(e.Chan), string(e.Enc))
		s.mPhaseSec.add(e.End-e.Start, e.Node, string(e.Phase), string(e.Dir))
	case e.Dir == DirRecv:
		s.mPhaseSec.add(e.End-e.Start, e.Node, string(e.Phase), string(e.Dir))
	case e.Phase == PhaseStep:
		if s.haveStep {
			s.mStepDur.observe(e.Start - s.stepStart)
		}
		s.stepStart, s.haveStep = e.Start, true
		s.mSuperstep.set(float64(e.Step))
	case e.Phase == PhaseEval:
		s.mLoss.set(e.Loss)
		s.mStale.set(float64(e.Stale))
	case e.Phase == PhaseUpdates:
		s.mUpdates.add(float64(e.Count))
	case e.Phase == PhaseMeta:
		// metadata carries no metric
	case e.Phase == PhaseStage:
		// the stage span aggregates its inner phases; counting it too would
		// double-book the driver's seconds
	case e.Phase == PhaseCausalFork, e.Phase == PhaseCausalBarrier, e.Phase == PhaseCausalSpec:
		// causal-graph bookkeeping: pure happens-before structure, no metric
		// (a barrier event's span is the participant's wait, which the
		// attribution already derives as residual wait time)
	default:
		s.mPhaseSec.add(e.End-e.Start, e.Node, string(e.Phase), "")
	}
}

// SetStep advances the current superstep: subsequent events are attributed
// to step, and the completed step's virtual duration is observed into the
// superstep histogram. The transition is recorded as a PhaseStep event so a
// replayed log reproduces the histogram exactly.
func (s *Sink) SetStep(step int, now float64) {
	if s == nil {
		return
	}
	s.record(Event{Step: step, Phase: PhaseStep, Start: now, End: now})
}

// Span records a compute-side span event (Dir empty) on the current step.
func (s *Sink) Span(node string, ph Phase, start, end float64, note string) {
	if s == nil {
		return
	}
	s.record(Event{Step: s.Step(), Node: node, Phase: ph, Start: start, End: end, Note: note})
}

// Message records one half of a message: its serialization through the
// sender's outbound NIC (DirSend, which also books the bytes) or through
// the receiver's inbound NIC (DirRecv).
func (s *Sink) Message(node string, ph Phase, ch Channel, dir Dir, enc Encoding, bytes, start, end float64) {
	if s == nil {
		return
	}
	s.record(Event{Step: s.Step(), Node: node, Phase: ph, Dir: dir, Chan: ch, Enc: enc,
		Bytes: bytes, Start: start, End: end})
}

// SpanProc is Span carrying the recording process's causal identity. When
// causal tracing is off the identity is dropped, so the recorded event is
// exactly what Span would have produced.
func (s *Sink) SpanProc(node string, ph Phase, start, end float64, note, proc string) {
	if s == nil {
		return
	}
	if !s.causal {
		proc = ""
	}
	s.record(Event{Step: s.Step(), Node: node, Phase: ph, Start: start, End: end, Note: note, Proc: proc})
}

// MessageProc is Message carrying the process identity and message id of the
// causal trace, plus the mailbox tag in Note (the chunk-level identity the
// what-if re-timer needs). All three enrichments are dropped when causal
// tracing is off, reducing to exactly Message's event.
func (s *Sink) MessageProc(node string, ph Phase, ch Channel, dir Dir, enc Encoding, bytes, start, end float64, tag, proc string, mid int64) {
	if s == nil {
		return
	}
	note := tag
	if !s.causal {
		note, proc, mid = "", "", 0
	}
	s.record(Event{Step: s.Step(), Node: node, Phase: ph, Dir: dir, Chan: ch, Enc: enc,
		Bytes: bytes, Start: start, End: end, Note: note, Proc: proc, MID: mid})
}

// CausalFork records that parent forked child at now (a cp-fork event); the
// causal graph uses it to gate the child chain's first node. No-op unless
// causal tracing is on.
func (s *Sink) CausalFork(node, parent, child string, now float64) {
	if s == nil || !s.causal {
		return
	}
	s.record(Event{Step: s.Step(), Node: node, Phase: PhaseCausalFork,
		Start: now, End: now, Proc: parent, Grp: child})
}

// CausalBarrier records one participant of a completed barrier generation: a
// cp-barrier event spanning [arrival, release] for proc, grouped by the
// barrier's name and generation. No-op unless causal tracing is on.
func (s *Sink) CausalBarrier(name string, gen int, proc string, arrive, release float64) {
	if s == nil || !s.causal {
		return
	}
	s.record(Event{Step: s.Step(), Phase: PhaseCausalBarrier,
		Start: arrive, End: release, Proc: proc, Grp: fmt.Sprintf("%s@%d", name, gen)})
}

// CausalSpec records a cluster-spec note (node rates, network latency and
// framing) so an event log is self-describing for the what-if re-timer.
// No-op unless causal tracing is on.
func (s *Sink) CausalSpec(node, note string) {
	if s == nil || !s.causal {
		return
	}
	s.record(Event{Step: s.Step(), Node: node, Phase: PhaseCausalSpec, Note: note})
}

// Stage records the full span of one BSP stage at the driver.
func (s *Sink) Stage(node, name string, start, end float64) {
	if s == nil {
		return
	}
	s.record(Event{Step: s.Step(), Node: node, Phase: PhaseStage, Start: start, End: end, Note: name})
}

// Eval records an out-of-band objective evaluation at the given superstep,
// with the run's configured SSP staleness (0 for the BSP systems).
func (s *Sink) Eval(step int, node string, now, loss float64, stale int) {
	if s == nil {
		return
	}
	s.record(Event{Step: step, Node: node, Phase: PhaseEval, Start: now, End: now, Loss: loss, Stale: stale})
}

// Updates records that node applied count model updates during step.
func (s *Sink) Updates(step int, node string, count int64, now float64) {
	if s == nil || count == 0 {
		return
	}
	s.record(Event{Step: step, Node: node, Phase: PhaseUpdates, Start: now, End: now, Count: count})
}

// Meta records run metadata as a key=value note (system name, dataset, ...).
func (s *Sink) Meta(key, value string) {
	if s == nil {
		return
	}
	s.record(Event{Step: s.Step(), Phase: PhaseMeta, Note: key + "=" + value})
}

// SinkFromEvents replays a decoded event log through a fresh sink, yielding
// the same event log and — because record is the single ingestion path, the
// registry is a fold over the log, and step transitions are themselves
// events — the same registry state the original live run had.
func SinkFromEvents(events []Event) *Sink {
	s := NewSink()
	for i := range events {
		s.record(events[i])
	}
	return s
}
