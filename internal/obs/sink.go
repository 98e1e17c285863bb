package obs

import (
	"fmt"
	"io"
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

// Sink accumulates the superstep event log. Recording is one append: the
// log lives in fixed-capacity blocks, so an event, once recorded, is never
// copied or rewritten — a full block is followed by a fresh one, not
// regrown. Everything else is derived from the log when it is read: the
// metrics registry is a fold over it (Registry), so a live sink and a JSONL
// log replayed through SinkFromEvents expose identical metrics by
// construction.
//
// Methods are nil-safe (a nil *Sink records nothing) so instrumentation
// sites call the run's sink unconditionally. A sink has one goroutine: the
// DES thread that runs the simulation records into it, and its readers run
// after the run. It takes no lock, so a recording from an offloaded closure
// on a par pool goroutine is a data race that `go test -race` reports.
type Sink struct {
	blocks [][]Event // every block but the last is full
	step   int       // current superstep: set by record on a step marker, read by the hooks (Step)
	mid    int64     // message-id allocator; ids start at 1 so 0 means "no causal pairing"
}

// NewSink returns an empty sink. Most callers want Enable, which also
// installs the sink process-wide.
func NewSink() *Sink { return &Sink{} }

// runMetrics is the metrics registry of one fold over a log, with the
// families the fold books into and the superstep it has reached.
type runMetrics struct {
	reg       *Registry
	stepStart float64 // start of the superstep in progress
	haveStep  bool

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

func newRunMetrics() *runMetrics {
	reg := NewRegistry()
	return &runMetrics{
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

// Registry returns the metrics registry of the log recorded so far: a fresh
// fold of every event, in log order, so the exposition does not depend on
// when or how often it is read.
func (s *Sink) Registry() *Registry {
	if s == nil {
		return nil
	}
	m := newRunMetrics()
	for _, b := range s.blocks {
		for i := range b {
			m.fold(&b[i])
		}
	}
	return m.reg
}

// Events returns a copy of the event log recorded so far.
func (s *Sink) Events() []Event {
	if s == nil || len(s.blocks) == 0 {
		return nil
	}
	out := make([]Event, 0, s.Len())
	for _, b := range s.blocks {
		out = append(out, b...)
	}
	return out
}

// Len returns the number of events recorded so far.
func (s *Sink) Len() int {
	if s == nil || len(s.blocks) == 0 {
		return 0
	}
	return (len(s.blocks)-1)*blockEvents + len(s.blocks[len(s.blocks)-1])
}

// WriteJSONL writes the event log recorded so far to w, block by block,
// without flattening it.
func (s *Sink) WriteJSONL(w io.Writer) error {
	if s == nil {
		return nil
	}
	jw := newJSONLWriter(w)
	for _, b := range s.blocks {
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
	return s.step
}

// NewMID allocates the next message id, or returns 0 on a nil sink — send
// sites call it unconditionally and a zero id simply leaves the event's MID
// field absent.
func (s *Sink) NewMID() int64 {
	if s == nil {
		return 0
	}
	s.mid++
	return s.mid
}

// record appends an event to the log, noting the superstep a step marker
// opens. This is the single ingestion path, shared by the live hooks and by
// SinkFromEvents replay; everything a reader derives from the log (the
// registry, attribution, the causal graph) is computed from what it
// appended.
func (s *Sink) record(e Event) {
	last := len(s.blocks) - 1
	if last < 0 || len(s.blocks[last]) == blockEvents {
		s.blocks = append(s.blocks, make([]Event, 0, blockEvents))
		last++
	}
	s.blocks[last] = append(s.blocks[last], e)
	if e.Phase == PhaseStep {
		s.step = e.Step
	}
}

// fold books one event into the registry. Events are folded exactly once
// and in log order, so the float additions — and with them the exposition —
// are a function of the log alone.
func (m *runMetrics) fold(e *Event) {
	if e.End > 0 {
		m.mVirtual.set(e.End)
	}
	switch {
	case e.Dir == DirSend:
		m.mBytes.add(e.Bytes, string(e.Chan), string(e.Enc))
		m.mMsgs.add(1, string(e.Chan), string(e.Enc))
		m.mPhaseSec.add(e.End-e.Start, e.Node, string(e.Phase), string(e.Dir))
	case e.Dir == DirRecv:
		m.mPhaseSec.add(e.End-e.Start, e.Node, string(e.Phase), string(e.Dir))
	case e.Phase == PhaseStep:
		if m.haveStep {
			m.mStepDur.observe(e.Start - m.stepStart)
		}
		m.stepStart, m.haveStep = e.Start, true
		m.mSuperstep.set(float64(e.Step))
	case e.Phase == PhaseEval:
		m.mLoss.set(e.Loss)
		m.mStale.set(float64(e.Stale))
	case e.Phase == PhaseUpdates:
		m.mUpdates.add(float64(e.Count))
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
		m.mPhaseSec.add(e.End-e.Start, e.Node, string(e.Phase), "")
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

// Proc is the process an event is recorded for: des.Proc satisfies it. A
// sink asks for the identity only when it records, so a run without a sink
// never makes a process build one.
type Proc interface{ Ident() string }

// SpanProc records a compute-side span event (Dir empty) on the current
// step, carrying the recording process's causal identity.
func (s *Sink) SpanProc(node string, ph Phase, start, end float64, note string, p Proc) {
	if s == nil {
		return
	}
	s.record(Event{Step: s.Step(), Node: node, Phase: ph, Start: start, End: end, Note: note, Proc: p.Ident()})
}

// MessageProc records one half of a message: its serialization through the
// sender's outbound NIC (DirSend, which also books the bytes) or through the
// receiver's inbound NIC (DirRecv). The event carries the causal trace's
// process identity and message id, plus the mailbox tag in Note (the
// chunk-level identity the what-if re-timer needs).
func (s *Sink) MessageProc(node string, ph Phase, ch Channel, dir Dir, enc Encoding, bytes, start, end float64, tag string, p Proc, mid int64) {
	if s == nil {
		return
	}
	s.record(Event{Step: s.Step(), Node: node, Phase: ph, Dir: dir, Chan: ch, Enc: enc,
		Bytes: bytes, Start: start, End: end, Note: tag, Proc: p.Ident(), MID: mid})
}

// CausalFork records that parent forked child at now (a cp-fork event); the
// causal graph uses it to gate the child chain's first node.
func (s *Sink) CausalFork(node string, parent, child Proc, now float64) {
	if s == nil {
		return
	}
	s.record(Event{Step: s.Step(), Node: node, Phase: PhaseCausalFork,
		Start: now, End: now, Proc: parent.Ident(), Grp: child.Ident()})
}

// CausalBarrier records one participant of a completed barrier generation: a
// cp-barrier event spanning [arrival, release] for p, grouped by the
// barrier's name and generation.
func (s *Sink) CausalBarrier(name string, gen int, p Proc, arrive, release float64) {
	if s == nil {
		return
	}
	s.record(Event{Step: s.Step(), Phase: PhaseCausalBarrier,
		Start: arrive, End: release, Proc: p.Ident(), Grp: fmt.Sprintf("%s@%d", name, gen)})
}

// CausalSpec records a cluster-spec note (node rates, network latency and
// framing) so an event log is self-describing for the what-if re-timer.
func (s *Sink) CausalSpec(node, note string) {
	if s == nil {
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
