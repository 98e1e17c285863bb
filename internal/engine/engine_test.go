package engine

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mllibstar/internal/des"
	"mllibstar/internal/obs"
	"mllibstar/internal/simnet"
	"mllibstar/internal/sparse"
)

// testConfig is a modest task and result envelope.
var testConfig = Config{TaskBytes: 1024, ResultBytes: 256}

// testCluster builds a driver + k executors cluster with simple rates:
// compute 1000 work/s, network 1e6 B/s, no latency.
func testCluster(k int, cfg Config) (*des.Sim, *Cluster, *Context) {
	sim := des.New()
	specs := []simnet.NodeSpec{{Name: "driver", ComputeRate: 1000, SendBW: 1e6, RecvBW: 1e6}}
	specs = append(specs, simnet.Uniform("exec", k, 1000, 1e6)...)
	cl := NewCluster(sim, simnet.Config{}, specs, obs.NewSink())
	return sim, cl, NewContext(cl, cfg)
}

// runOnDriver runs fn as the driver process and returns the finish time.
func runOnDriver(sim *des.Sim, fn func(p *des.Proc)) float64 {
	var done float64
	sim.Spawn("driver", func(p *des.Proc) {
		fn(p)
		done = p.Now()
	})
	sim.Run()
	return done
}

func TestRunStageResultsInOrder(t *testing.T) {
	sim, _, ctx := testCluster(4, testConfig)
	runOnDriver(sim, func(p *des.Proc) {
		tasks := make([]Task, 4)
		for i := range tasks {
			i := i
			tasks[i] = Task{
				Exec: ctx.Cluster.Execs[i],
				Run: func(p *des.Proc, ex *Executor) (any, float64) {
					// Executors take different times; results must still
					// come back indexed correctly.
					ex.Charge(p, float64((4-i)*100))
					return i * 10, 8
				},
			}
		}
		res := ctx.RunStage(p, "s", tasks)
		want := []any{0, 10, 20, 30}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("results = %v, want %v", res, want)
		}
	})
}

func TestRunStageIsBarrier(t *testing.T) {
	// The driver cannot proceed past RunStage before the slowest task ends.
	sim, _, ctx := testCluster(3, Config{TaskBytes: 1, ResultBytes: 1})
	end := runOnDriver(sim, func(p *des.Proc) {
		tasks := make([]Task, 3)
		for i := range tasks {
			work := float64(100 * (i + 1)) // slowest: 300 work = 0.3s
			tasks[i] = Task{
				Exec: ctx.Cluster.Execs[i],
				Run: func(p *des.Proc, ex *Executor) (any, float64) {
					ex.Charge(p, work)
					return nil, 0
				},
			}
		}
		ctx.RunStage(p, "s", tasks)
	})
	if end < 0.3 {
		t.Errorf("stage finished at %g, before slowest task (0.3)", end)
	}
}

func TestRunStageEmptyReturnsNil(t *testing.T) {
	sim, _, ctx := testCluster(2, testConfig)
	runOnDriver(sim, func(p *des.Proc) {
		if res := ctx.RunStage(p, "s", nil); res != nil {
			t.Errorf("res = %v", res)
		}
	})
}

func TestSchedulerWorkSerializesDispatch(t *testing.T) {
	// With large per-task scheduler work, dispatch time scales with task
	// count — the driver-side scheduling cost of Spark.
	timeFor := func(n int) float64 {
		sim, _, ctx := testCluster(n, Config{TaskBytes: 1, ResultBytes: 1, SchedulerWork: 100})
		return runOnDriver(sim, func(p *des.Proc) {
			tasks := make([]Task, n)
			for i := range tasks {
				tasks[i] = Task{Exec: ctx.Cluster.Execs[i], Run: func(p *des.Proc, ex *Executor) (any, float64) { return nil, 0 }}
			}
			ctx.RunStage(p, "s", tasks)
		})
	}
	t2, t8 := timeFor(2), timeFor(8)
	if t8 < 3.5*t2 {
		t.Errorf("8-task dispatch %g not ~4x 2-task dispatch %g", t8, t2)
	}
}

func TestStragglerDeterministicInflation(t *testing.T) {
	run := func() float64 {
		sim, _, ctx := testCluster(4, Config{TaskBytes: 1, ResultBytes: 1, StragglerFactor: 2, StragglerSeed: 7})
		return runOnDriver(sim, func(p *des.Proc) {
			tasks := make([]Task, 4)
			for i := range tasks {
				tasks[i] = Task{Exec: ctx.Cluster.Execs[i], Run: func(p *des.Proc, ex *Executor) (any, float64) {
					ex.Charge(p, 100)
					return nil, 0
				}}
			}
			ctx.RunStage(p, "s", tasks)
		})
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("straggler sampling not deterministic: %g vs %g", a, b)
	}
	// Some inflation must have occurred vs the 0.1s baseline.
	if a <= 0.1 {
		t.Errorf("no straggler inflation: %g", a)
	}
}

func TestWavesSerializeOnExecutor(t *testing.T) {
	// Two tasks pinned to the same executor must run back to back.
	sim, _, ctx := testCluster(1, Config{TaskBytes: 1, ResultBytes: 1})
	end := runOnDriver(sim, func(p *des.Proc) {
		tasks := []Task{
			{Exec: "exec0", Run: func(p *des.Proc, ex *Executor) (any, float64) { ex.Charge(p, 100); return nil, 0 }},
			{Exec: "exec0", Run: func(p *des.Proc, ex *Executor) (any, float64) { ex.Charge(p, 100); return nil, 0 }},
		}
		ctx.RunStage(p, "s", tasks)
	})
	if end < 0.2 {
		t.Errorf("two waves finished at %g, want >= 0.2", end)
	}
}

func TestTreeAggregateVecSum(t *testing.T) {
	for _, aggs := range []int{0, 1, 2, 4} {
		sim, _, ctx := testCluster(4, testConfig)
		runOnDriver(sim, func(p *des.Proc) {
			got := ctx.TreeAggregateVec(p, fmt.Sprintf("agg%d", aggs), 3, aggs, 0,
				func(task int) ([]float64, float64) {
					return []float64{1, 2, 3}, 1
				})
			want := []float64{4, 8, 12}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("aggs=%d: got %v, want %v", aggs, got, want)
			}
		})
	}
}

func TestTreeAggregateReducesDriverTraffic(t *testing.T) {
	// With 2 intermediate aggregators over 8 executors, the driver receives
	// only 2 model-sized results instead of 8.
	driverRecv := func(aggs int) float64 {
		sim, cl, ctx := testCluster(8, Config{TaskBytes: 1, ResultBytes: 1})
		runOnDriver(sim, func(p *des.Proc) {
			ctx.TreeAggregateVec(p, "a", 1000, aggs, 0, func(task int) ([]float64, float64) {
				return make([]float64, 1000), 1
			})
		})
		return cl.Net.Node("driver").BytesRecv()
	}
	flat := driverRecv(8)
	tree := driverRecv(2)
	if tree >= flat/2 {
		t.Errorf("tree driver traffic %g not well below flat %g", tree, flat)
	}
}

func TestTreeAggregateChargesPayloadBroadcast(t *testing.T) {
	// payloadBytes models broadcasting the model with each task: driver out
	// bytes must grow by k*payload.
	sent := func(payload float64) float64 {
		sim, cl, ctx := testCluster(4, Config{TaskBytes: 1, ResultBytes: 1})
		runOnDriver(sim, func(p *des.Proc) {
			ctx.TreeAggregateVec(p, "a", 10, 4, payload, func(task int) ([]float64, float64) {
				return make([]float64, 10), 1
			})
		})
		return cl.Net.Node("driver").BytesSent()
	}
	base, withPayload := sent(0), sent(8000)
	if got := withPayload - base; math.Abs(got-4*8000) > 1 {
		t.Errorf("payload delta = %g, want 32000", got)
	}
}

func TestPeerToPeerInsideTask(t *testing.T) {
	// Executors exchange messages within a stage (the AllReduce pattern).
	sim, _, ctx := testCluster(2, Config{TaskBytes: 1, ResultBytes: 1})
	runOnDriver(sim, func(p *des.Proc) {
		tasks := []Task{
			{Exec: "exec0", Run: func(p *des.Proc, ex *Executor) (any, float64) {
				ex.Send(p, "exec1", "ping", 100, 41)
				m := ex.Recv(p, "pong")
				return m.Payload.(int), 8
			}},
			{Exec: "exec1", Run: func(p *des.Proc, ex *Executor) (any, float64) {
				m := ex.Recv(p, "ping")
				ex.Send(p, "exec0", "pong", 100, m.Payload.(int)+1)
				return nil, 0
			}},
		}
		res := ctx.RunStage(p, "p2p", tasks)
		if res[0] != 42 {
			t.Errorf("res = %v", res)
		}
	})
}

func TestStageMarksRecorded(t *testing.T) {
	sim, cl, ctx := testCluster(2, testConfig)
	runOnDriver(sim, func(p *des.Proc) {
		tasks := []Task{{Exec: "exec0", Run: func(p *des.Proc, ex *Executor) (any, float64) {
			ex.Charge(p, 10)
			return nil, 0
		}}}
		ctx.RunStage(p, "mystage", tasks)
	})
	g := obs.GanttFromEvents(cl.Net.Sink().Events())
	if g.BusyTime()["exec0"]["compute"] <= 0 {
		t.Error("no compute span recorded for exec0")
	}
	if len(g.Markers) != 2 || g.Markers[0].Label != "stage mystage start" || g.Markers[1].Label != "stage mystage end" {
		t.Errorf("stage markers = %v", g.Markers)
	}
	if ctx.stageSeq != 1 {
		t.Errorf("stages = %d", ctx.stageSeq)
	}
}

// TestHeadersCheckOwnership: in a test binary a released message header is
// poisoned — its encoding is the empty one, so a fold reading it after the
// release fails — and releasing it twice, or taking it back after something
// wrote to it, panics.
func TestHeadersCheckOwnership(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	enc := sparse.EncodeShared([]float64{1, 2}, nil)
	_, cl, _ := testCluster(2, testConfig)
	ex := cl.Executor(cl.Execs[0])
	h := ex.NewHeader(0, enc)
	ex.ReleaseHeader(h)
	if h.Enc.Len() != 0 || h.From != -1 {
		t.Errorf("a released header holds %+v, want the poison", *h)
	}
	mustPanic("a second release", func() { ex.ReleaseHeader(h) })

	_, cl, _ = testCluster(2, testConfig)
	ex = cl.Executor(cl.Execs[0])
	h = ex.NewHeader(0, enc)
	ex.ReleaseHeader(h)
	h.Enc = enc
	mustPanic("taking a header written after its release", func() { ex.NewHeader(1, enc) })

	_, cl, _ = testCluster(2, testConfig)
	ex = cl.Executor(cl.Execs[0])
	ex.ReleaseHeader(ex.NewHeader(0, enc))
	if h := ex.NewHeader(1, enc); h.From != 1 || h.Enc.Len() != 2 {
		t.Errorf("a recycled header holds %+v", *h)
	}
}
