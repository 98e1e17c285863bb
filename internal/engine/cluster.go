// Package engine implements a Spark-like BSP execution engine on top of the
// simulated cluster in package simnet: a driver that schedules stages of
// tasks onto long-running executors (Context.RunStage, with stragglers and
// speculative copies), and the communication primitives MLlib's
// gradient-descent implementation and MLlib* use — task dispatch with
// payload broadcast, hierarchical treeAggregate (TreeAggregateVec),
// torrent broadcast (BroadcastVec) and the in-task all-to-all shuffle round
// AllReduce is built on (Exchange). Each executor keeps its data partition
// pinned for the whole run, the steady state a cached RDD reaches in Spark,
// so the engine has no RDD lineage, block store or executor failure.
//
// Task functions execute real Go code — real gradients over real data — but
// charge their computation to the simulated clock through Executor.Charge,
// and all communication flows through simnet, so an experiment yields both a
// genuine convergence curve and a faithful distributed-execution timeline.
package engine

import (
	"fmt"
	"testing"

	"mllibstar/internal/des"
	"mllibstar/internal/obs"
	"mllibstar/internal/simnet"
	"mllibstar/internal/sparse"
	"mllibstar/internal/vec"
)

// Config tunes the engine's overheads, mirroring the fixed costs of Spark's
// scheduler and serialization stack.
type Config struct {
	TaskBytes     float64 // serialized task descriptor size (driver → executor)
	ResultBytes   float64 // fixed result envelope size (executor → driver)
	SchedulerWork float64 // driver work units to schedule one task
	// SpeculationQuantile enables speculative execution: once this fraction
	// of a stage's tasks has completed, a copy of each still-running
	// Speculatable task is launched on another executor (0 = off; Spark's
	// spark.speculation.quantile defaults to 0.75).
	SpeculationQuantile float64
	StragglerFactor     float64 // ≥0; executor compute work is inflated by up to this fraction, sampled per task
	// StragglerProb switches the straggler model from uniform to heavy
	// tail: with probability StragglerProb a task is (1+StragglerFactor)x
	// slower, otherwise it runs at full speed — the rare severe stragglers
	// (GC pauses, co-tenant bursts) that speculative execution targets.
	StragglerProb float64
	StragglerSeed int64 // seed for straggler sampling
}

// Cluster is a driver plus a set of executors on a simulated network.
type Cluster struct {
	Sim    *des.Sim
	Net    *simnet.Network
	Driver string
	Execs  []string
	execs  map[string]*Executor
	pool   *vec.Pool // model-sized buffers of the driver and every executor (Context.GetVec, Executor.GetVec)
	// headers are the released message headers (Executor.NewHeader). Only
	// the simulation thread takes and releases them.
	headers []*Header
}

// NewCluster builds a cluster from node specs. The first spec is the driver;
// the rest are executors. Executor server processes are spawned immediately
// and run until the simulation shuts down.
func NewCluster(sim *des.Sim, netCfg simnet.Config, specs []simnet.NodeSpec, sink *obs.Sink) *Cluster {
	if len(specs) < 2 {
		panic("engine: need a driver and at least one executor")
	}
	net := simnet.New(sim, netCfg, specs, sink)
	c := &Cluster{
		Sim:    sim,
		Net:    net,
		Driver: specs[0].Name,
		execs:  map[string]*Executor{},
		pool:   vec.NewPool(),
	}
	for _, sp := range specs[1:] {
		ex := &Executor{
			cluster: c,
			name:    sp.Name,
			node:    net.Node(sp.Name),
		}
		c.Execs = append(c.Execs, sp.Name)
		c.execs[sp.Name] = ex
		sim.Spawn("exec:"+sp.Name, ex.serve)
	}
	return c
}

// Executor returns the named executor, panicking on unknown names.
func (c *Cluster) Executor(name string) *Executor {
	ex, ok := c.execs[name]
	if !ok {
		panic(fmt.Sprintf("engine: unknown executor %q", name))
	}
	return ex
}

// Executor is a long-running worker: it receives task messages, runs them,
// and sends results back to the driver. Its partition of the training data
// stays pinned to it for the whole run — the steady state a cached RDD
// reaches in Spark — so a task body reads it directly.
type Executor struct {
	cluster  *Cluster
	name     string
	node     *simnet.Node
	tasksRun int
	slowdown float64 // per-task straggler multiplier set by the scheduler (0 = none)
}

// Name returns the executor's node name.
func (ex *Executor) Name() string { return ex.name }

// Node returns the underlying simulated node.
func (ex *Executor) Node() *simnet.Node { return ex.node }

// PeerSpec returns the recorded spec of any cluster node by name, so
// collectives can schedule chunk routing from the machine classes
// (internal/allreduce.RouteOrder) instead of naive round-robin.
func (ex *Executor) PeerSpec(name string) simnet.NodeSpec {
	return ex.cluster.Net.Node(name).Spec()
}

// GetVec returns a zeroed buffer of length n from the cluster's pool — the
// pool behind Context.GetVec — for scratch a task body needs on the
// simulation thread, such as the one vector a collective fold decodes its
// sparse chunks through. The caller owns it until PutVec.
func (ex *Executor) GetVec(n int) []float64 { return ex.cluster.pool.Get(n) }

// PutVec recycles a buffer obtained from GetVec; nil is a no-op. The caller
// must not use b afterwards.
func (ex *Executor) PutVec(b []float64) { ex.cluster.pool.Put(b) }

// Header is the envelope of one encoded vector in flight between two
// executors — an AllReduce block or a treeAggregate partial: the sender's
// executor index, by which the receiver orders its fold, and the encoding,
// held by value. Headers
// come from the cluster's free list (NewHeader) and ride a message as its
// payload; the receiver releases each one (ReleaseHeader) when nothing reads
// it any more, which for a header read by an offloaded fold or decode is
// after joining it. Only the encoding's data is shared with the sender.
//
// In a test binary (testing.Testing) a released header is poisoned: its
// encoding is the empty one, which no fold or decode of a nonempty range
// accepts, so a read after release panics; releasing one twice, or taking
// one that was written after its release, panics too.
type Header struct {
	From     int
	Enc      sparse.Enc
	released bool
}

// IsSparse reports the wire encoding of the carried vector, so telemetry
// books the message under the right encoding (see obs.EncodingOf).
func (h *Header) IsSparse() bool { return h.Enc.IsSparse() }

// checked turns the run-time ownership checks of recycled headers on.
var checked = testing.Testing()

// poisoned reports whether h holds what ReleaseHeader wrote into it.
func (h *Header) poisoned() bool {
	return h.released && h.From == -1 && h.Enc.Len() == 0 && !h.Enc.IsSparse() && h.Enc.Dense() == nil
}

// NewHeader returns a header from the cluster's free list, or a new one,
// holding from and enc. The header belongs to the message it is sent
// with; its receiver releases it.
func (ex *Executor) NewHeader(from int, enc sparse.Enc) *Header {
	c := ex.cluster
	var h *Header
	if n := len(c.headers); n > 0 {
		h, c.headers = c.headers[n-1], c.headers[:n-1]
		if checked && !h.poisoned() {
			panic("engine: a message header was written after its release")
		}
	} else {
		h = new(Header)
	}
	*h = Header{From: from, Enc: enc}
	return h
}

// ReleaseHeader returns a received header to the cluster's free list. The
// caller must not read h afterwards, nor let an unjoined closure read it.
func (ex *Executor) ReleaseHeader(h *Header) {
	if checked {
		if h.released {
			panic("engine: a message header was released twice")
		}
		*h = Header{From: -1, released: true}
	}
	ex.cluster.headers = append(ex.cluster.headers, h)
}

// TasksRun returns how many tasks this executor has completed.
func (ex *Executor) TasksRun() int { return ex.tasksRun }

// Charge blocks the executor for work units of computation on the simulated
// clock (recorded as a Compute span). Task functions call this at the site
// of their real computation.
func (ex *Executor) Charge(p *des.Proc, work float64) {
	ex.node.Compute(p, work*ex.factor())
}

// ChargeKind is Charge with an explicit phase (aggregate, update, ...).
func (ex *Executor) ChargeKind(p *des.Proc, work float64, ph obs.Phase, note string) {
	ex.node.ComputeKind(p, work*ex.factor(), ph, note)
}

// ChargeAsync charges work on the simulated clock while fn — the pure
// numeric computation the charge models — runs on the offload pool, joining
// before return (see simnet.Node.ComputeAsyncKind for the purity contract).
// work must be computable without running fn; task bodies whose work is
// value-dependent should use Task.Pure instead.
func (ex *Executor) ChargeAsync(p *des.Proc, work float64, fn func()) {
	ex.node.ComputeAsyncKind(p, work*ex.factor(), obs.PhaseCompute, "", fn)
}

// factor returns the straggler multiplier in effect for the current task.
func (ex *Executor) factor() float64 {
	if ex.slowdown > 1 {
		return ex.slowdown
	}
	return 1
}

// Send transmits bytes to another cluster node from within a task — the
// peer-to-peer primitive AllReduce's shuffle rounds are built on.
func (ex *Executor) Send(p *des.Proc, to, tag string, bytes float64, payload any) {
	ex.node.Send(p, to, tag, bytes, payload)
}

// Recv receives a message sent to this executor with the given tag.
func (ex *Executor) Recv(p *des.Proc, tag string) simnet.Message {
	return ex.node.Recv(p, tag)
}

// taskMsg is the driver→executor task descriptor.
type taskMsg struct {
	index    int
	replyTag string
	envelope float64 // fixed result envelope size configured by the Context
	run      func(p *des.Proc, ex *Executor) (result any, resultBytes float64)
}

// taskResult is the executor→driver reply.
type taskResult struct {
	index  int
	result any
}

// serve is the executor's server loop: take a task, run it, reply.
func (ex *Executor) serve(p *des.Proc) {
	for {
		msg := ex.node.Recv(p, "task")
		tm := msg.Payload.(*taskMsg)
		res, rb := tm.run(p, ex)
		ex.tasksRun++
		ex.node.Send(p, ex.cluster.Driver, tm.replyTag, tm.envelope+rb,
			&taskResult{index: tm.index, result: res})
	}
}
