package engine

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mllibstar/internal/des"
	"mllibstar/internal/obs"
	"mllibstar/internal/simnet"
)

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
	sim, _, ctx := testCluster(4, DefaultConfig())
	runOnDriver(sim, func(p *des.Proc) {
		tasks := make([]Task, 4)
		for i := range tasks {
			i := i
			tasks[i] = Task{
				Exec: ctx.RoundRobin(i),
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
				Exec: ctx.RoundRobin(i),
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
	sim, _, ctx := testCluster(2, DefaultConfig())
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
				tasks[i] = Task{Exec: ctx.RoundRobin(i), Run: func(p *des.Proc, ex *Executor) (any, float64) { return nil, 0 }}
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
				tasks[i] = Task{Exec: ctx.RoundRobin(i), Run: func(p *des.Proc, ex *Executor) (any, float64) {
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

func makeParts(k, perPart int) [][]int {
	parts := make([][]int, k)
	v := 0
	for i := range parts {
		for j := 0; j < perPart; j++ {
			parts[i] = append(parts[i], v)
			v++
		}
	}
	return parts
}

func TestRDDCollectRoundTrip(t *testing.T) {
	sim, _, ctx := testCluster(3, DefaultConfig())
	runOnDriver(sim, func(p *des.Proc) {
		rdd := Parallelize(ctx, "nums", makeParts(3, 4))
		got := Collect(p, rdd, 8)
		if !reflect.DeepEqual(got, makeParts(3, 4)) {
			t.Errorf("collect = %v", got)
		}
	})
}

func TestRDDMapFilterCount(t *testing.T) {
	sim, _, ctx := testCluster(2, DefaultConfig())
	runOnDriver(sim, func(p *des.Proc) {
		rdd := Parallelize(ctx, "nums", makeParts(2, 5)) // 0..9
		doubled := Map(rdd, "x2", 1, func(v int) int { return v * 2 })
		big := Filter(doubled, "big", 1, func(v int) bool { return v >= 10 })
		if n := Count(p, big); n != 5 { // 10,12,14,16,18
			t.Errorf("count = %d, want 5", n)
		}
	})
}

func TestRDDReduce(t *testing.T) {
	sim, _, ctx := testCluster(2, DefaultConfig())
	runOnDriver(sim, func(p *des.Proc) {
		rdd := Parallelize(ctx, "nums", makeParts(2, 5))
		sum := Reduce(p, rdd, 8, 1, func(a, b int) int { return a + b })
		if sum != 45 {
			t.Errorf("sum = %d, want 45", sum)
		}
	})
}

func TestRDDReduceSkipsEmptyPartitions(t *testing.T) {
	sim, _, ctx := testCluster(2, DefaultConfig())
	runOnDriver(sim, func(p *des.Proc) {
		rdd := Parallelize(ctx, "nums", [][]int{{1, 2}, {}})
		if sum := Reduce(p, rdd, 8, 1, func(a, b int) int { return a + b }); sum != 3 {
			t.Errorf("sum = %d", sum)
		}
	})
}

func TestRDDSampleDeterministicFraction(t *testing.T) {
	sim, _, ctx := testCluster(2, DefaultConfig())
	runOnDriver(sim, func(p *des.Proc) {
		rdd := Parallelize(ctx, "nums", makeParts(2, 500))
		s1 := Sample(rdd, "s", 0.2, 42)
		n1 := Count(p, s1)
		if n1 < 100 || n1 > 320 {
			t.Errorf("sample size = %d, want ~200", n1)
		}
		s2 := Sample(rdd, "s", 0.2, 42)
		if n2 := Count(p, s2); n2 != n1 {
			t.Errorf("same seed sample sizes differ: %d vs %d", n1, n2)
		}
	})
}

func TestRDDCachingAvoidsRecompute(t *testing.T) {
	sim, _, ctx := testCluster(2, Config{TaskBytes: 1, ResultBytes: 1})
	computeCalls := 0
	runOnDriver(sim, func(p *des.Proc) {
		base := Parallelize(ctx, "nums", makeParts(2, 3))
		mapped := Map(base, "m", 0, func(v int) int { computeCalls++; return v + 1 }).Cache()
		Count(p, mapped)
		callsAfterFirst := computeCalls
		Count(p, mapped) // should hit the block store
		if computeCalls != callsAfterFirst {
			t.Errorf("cached RDD recomputed: %d -> %d calls", callsAfterFirst, computeCalls)
		}
		// Fault injection: drop one executor's blocks, forcing lineage replay
		// for its partitions only.
		ctx.Cluster.Executor("exec0").DropCache(mapped.ID())
		Count(p, mapped)
		if computeCalls <= callsAfterFirst || computeCalls >= 2*callsAfterFirst {
			t.Errorf("lineage recompute after cache drop: calls %d (first pass %d)", computeCalls, callsAfterFirst)
		}
	})
}

func TestTreeAggregateVecSum(t *testing.T) {
	for _, aggs := range []int{0, 1, 2, 4} {
		sim, _, ctx := testCluster(4, DefaultConfig())
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
	sim, cl, ctx := testCluster(2, DefaultConfig())
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
	if ctx.Stages() != 1 {
		t.Errorf("stages = %d", ctx.Stages())
	}
}
