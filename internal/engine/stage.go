package engine

import (
	"fmt"
	"math/rand"

	"mllibstar/internal/des"
	"mllibstar/internal/detrand"
	"mllibstar/internal/obs"
	"mllibstar/internal/par"
)

// Context is the driver-side handle for running stages, the analogue of a
// SparkContext. All Context methods must be called from the driver process.
type Context struct {
	Cluster  *Cluster
	Cfg      Config
	stageSeq int
	nextRDD  int
	specSeq  int
	rng      *rand.Rand
	accums   []*Accumulator
}

// NewContext returns a Context over the cluster with the given engine
// configuration.
func NewContext(c *Cluster, cfg Config) *Context {
	return &Context{Cluster: c, Cfg: cfg, rng: detrand.New(cfg.StragglerSeed)}
}

// GetVec returns a zeroed model-sized buffer from the cluster's pool. Pure
// task closures running on worker threads may call it concurrently. The
// buffer's ownership transfers to the caller; return it with PutVec when the
// values are dead. Buffer identity never affects numerics (every buffer
// comes back zeroed), so pooling is outside the bit-identity contract.
func (ctx *Context) GetVec(n int) []float64 { return ctx.Cluster.pool.Get(n) }

// PutVec recycles a buffer obtained from GetVec. The caller must not use b
// afterwards (the vecalias analyzer's pooled-buffer rule enforces this).
func (ctx *Context) PutVec(b []float64) { ctx.Cluster.pool.Put(b) }

// Task is one unit of work in a stage, bound to a specific executor. Run
// executes on the executor's process; it performs real computation, charges
// it via Executor.Charge, optionally exchanges peer messages, and returns a
// result plus the payload size of that result in bytes.
type Task struct {
	Exec         string
	PayloadBytes float64 // extra bytes shipped with the task descriptor (e.g. a broadcast model)
	// Speculatable marks the task as safe to run twice (pure function of
	// its inputs, no peer messaging, no shared-state mutation) so the
	// scheduler may launch speculative copies against stragglers.
	Speculatable bool
	// Pure is the task's offloadable numeric computation: a side-effect-free
	// closure (pure in the sense of simnet.Node.ComputeAsyncKind — it owns
	// every buffer it writes and touches no simulation state) returning the
	// virtual-time work it performed. RunStage submits every task's Pure to
	// the offload pool at dispatch time, before the first task message is
	// sent, so the closures of all tasks in the stage — the units that are
	// concurrently runnable in virtual time — execute concurrently on real
	// OS threads. On the executor, the engine joins the closure and charges
	// its returned work (as Executor.Charge, under the task's straggler
	// factor) at exactly the point where Run begins, then invokes Run. With
	// the pool disabled the closure instead runs inline at that same join
	// point, reproducing the sequential engine's execution path exactly.
	// Speculative copies join the same closure and charge the same work.
	Pure func() (work float64)
	Run  func(p *des.Proc, ex *Executor) (result any, resultBytes float64)
}

// RunStage schedules the tasks, blocks until every task's result has reached
// the driver (the BSP barrier of a Spark stage), and returns the results in
// task order. Dispatch serializes through the driver's outbound NIC and
// per-task scheduler work; results serialize through the driver's inbound
// NIC — together these reproduce the driver bottleneck of the paper's
// Figure 3(a).
func (ctx *Context) RunStage(p *des.Proc, name string, tasks []Task) []any {
	if len(tasks) == 0 {
		return nil
	}
	ctx.stageSeq++
	replyTag := fmt.Sprintf("res:%d", ctx.stageSeq)
	driver := ctx.Cluster.Net.Node(ctx.Cluster.Driver)
	stageStart := p.Now()

	// Offload prefetch: submit every task's pure closure before the first
	// task message leaves the driver. The stage's tasks are concurrently
	// runnable in virtual time, so their closures may run concurrently in
	// real time; each task joins its own handle (and charges the returned
	// work) when it starts executing, which keeps the virtual-time event
	// sequence identical to computing inline.
	handles := make([]*par.Handle, len(tasks))
	for i, t := range tasks {
		if t.Pure != nil {
			handles[i] = par.Go(t.Pure)
		}
	}

	for i, t := range tasks {
		if ctx.Cfg.SchedulerWork > 0 {
			driver.ComputeKind(p, ctx.Cfg.SchedulerWork, obs.PhaseSchedule, "schedule "+name)
		}
		msg := &taskMsg{stage: ctx.stageSeq, index: i, replyTag: replyTag, envelope: ctx.Cfg.ResultBytes, run: ctx.withStraggler(taskRunner(handles[i], t))}
		driver.Send(p, ctx.Cluster.reroute(t.Exec, i), "task", ctx.Cfg.TaskBytes+t.PayloadBytes, msg)
	}

	// Collect results; with speculation enabled, once the quantile of tasks
	// has finished, launch one copy of each Speculatable straggler on
	// another live executor and take whichever finishes first — Spark's
	// spark.speculation behaviour.
	results := make([]any, len(tasks))
	done := make([]bool, len(tasks))
	received := 0
	speculated := false
	quantile := ctx.Cfg.SpeculationQuantile
	for received < len(tasks) {
		m := driver.Recv(p, replyTag)
		tr := m.Payload.(*taskResult)
		if done[tr.index] {
			continue // a speculative copy's loser; result discarded
		}
		done[tr.index] = true
		results[tr.index] = tr.result
		received++
		for _, acc := range ctx.accums {
			acc.commit(ctx.stageSeq, tr.index, tr.attempt)
		}
		if quantile > 0 && !speculated && received >= int(float64(len(tasks))*quantile) && received < len(tasks) {
			speculated = true
			for i, t := range tasks {
				if done[i] || !t.Speculatable {
					continue
				}
				copyTo := ctx.Cluster.reroute(ctx.pickSpeculationHost(t.Exec), i)
				msg := &taskMsg{stage: ctx.stageSeq, index: i, attempt: 1, replyTag: replyTag, envelope: ctx.Cfg.ResultBytes, run: ctx.withStraggler(taskRunner(handles[i], t))}
				driver.Send(p, copyTo, "task", ctx.Cfg.TaskBytes+t.PayloadBytes, msg)
			}
		}
	}
	ctx.Cluster.Net.Sink().Stage(ctx.Cluster.Driver, name, stageStart, p.Now())
	return results
}

// taskRunner composes a task's prefetched pure closure with its Run body:
// join the closure, charge its work (inside the straggler wrapper, so
// offloaded work is inflated exactly like inline work), then run. Joining
// is idempotent, so an original and a speculative copy of the same task
// share one computation and charge the same work.
func taskRunner(h *par.Handle, t Task) func(p *des.Proc, ex *Executor) (any, float64) {
	if h == nil {
		return t.Run
	}
	run := t.Run
	return func(p *des.Proc, ex *Executor) (any, float64) {
		ex.Charge(p, h.Join())
		return run(p, ex)
	}
}

// withStraggler wraps a task runner with this dispatch's sampled straggler
// slowdown (uniform by default; Bernoulli heavy tail when StragglerProb is
// set). Every dispatch — original or speculative copy — draws its own fate.
func (ctx *Context) withStraggler(run func(p *des.Proc, ex *Executor) (any, float64)) func(p *des.Proc, ex *Executor) (any, float64) {
	f := ctx.Cfg.StragglerFactor
	if f <= 0 {
		return run
	}
	slow := 1 + ctx.rng.Float64()*f
	if p := ctx.Cfg.StragglerProb; p > 0 {
		if ctx.rng.Float64() < p {
			slow = 1 + f
		} else {
			slow = 1
		}
	}
	inner := run
	return func(p *des.Proc, ex *Executor) (any, float64) {
		prev := ex.slowdown
		ex.slowdown = slow
		defer func() { ex.slowdown = prev }()
		return inner(p, ex)
	}
}

// pickSpeculationHost chooses a different live executor than the original
// assignment, round-robin over the alive set.
func (ctx *Context) pickSpeculationHost(original string) string {
	alive := ctx.Cluster.Alive()
	if len(alive) <= 1 {
		return original
	}
	ctx.specSeq++
	pick := alive[ctx.specSeq%len(alive)]
	if pick == original {
		ctx.specSeq++
		pick = alive[ctx.specSeq%len(alive)]
	}
	return pick
}

// RoundRobin assigns n tasks over the cluster's executors in order,
// producing the executor name for task i.
func (ctx *Context) RoundRobin(i int) string {
	execs := ctx.Cluster.Execs
	return execs[i%len(execs)]
}

// NumExecutors returns the number of executors in the cluster.
func (ctx *Context) NumExecutors() int { return len(ctx.Cluster.Execs) }

// Stages returns how many stages this context has run.
func (ctx *Context) Stages() int { return ctx.stageSeq }
