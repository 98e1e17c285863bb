package engine

import (
	"testing"

	"mllibstar/internal/des"
)

// slowTask builds a stage where task `slowIdx` is extremely slow on its
// original executor but cheap elsewhere: the closure charges extra work
// only when it runs on the original host.
func speculationStage(ctx *Context, k, slowIdx int, speculatable bool) []Task {
	tasks := make([]Task, k)
	for i := 0; i < k; i++ {
		i := i
		home := ctx.Cluster.Execs[i]
		tasks[i] = Task{
			Exec:         home,
			Speculatable: speculatable,
			Run: func(p *des.Proc, ex *Executor) (any, float64) {
				work := 100.0
				if i == slowIdx && ex.Name() == home {
					work = 100000 // a 1000x straggler, but only at home
				}
				ex.Charge(p, work)
				return i, 8
			},
		}
	}
	return tasks
}

func TestSpeculationCutsStragglerTail(t *testing.T) {
	run := func(quantile float64) float64 {
		cfg := Config{TaskBytes: 1, ResultBytes: 1, SpeculationQuantile: quantile}
		sim, _, ctx := testCluster(4, cfg)
		return runOnDriver(sim, func(p *des.Proc) {
			res := ctx.RunStage(p, "s", speculationStage(ctx, 4, 2, true))
			for i, r := range res {
				if r.(int) != i {
					t.Errorf("result %d = %v", i, r)
				}
			}
		})
	}
	without := run(0)
	with := run(0.75)
	if with >= without/2 {
		t.Errorf("speculation did not cut the tail: %g vs %g", with, without)
	}
}

func TestSpeculationRespectsSpeculatableFlag(t *testing.T) {
	runs := 0
	cfg := Config{TaskBytes: 1, ResultBytes: 1, SpeculationQuantile: 0.5}
	sim, _, ctx := testCluster(3, cfg)
	runOnDriver(sim, func(p *des.Proc) {
		tasks := make([]Task, 3)
		for i := range tasks {
			i := i
			work := 10.0
			if i == 2 {
				work = 10000
			}
			tasks[i] = Task{
				Exec:         ctx.Cluster.Execs[i],
				Speculatable: false,
				Run: func(p *des.Proc, ex *Executor) (any, float64) {
					runs++
					ex.Charge(p, work)
					return i, 8
				},
			}
		}
		ctx.RunStage(p, "s", tasks)
	})
	if runs != 3 {
		t.Errorf("non-speculatable tasks ran %d times, want 3", runs)
	}
}

func TestSpeculationDiscardsLoserResult(t *testing.T) {
	// Both the original and the copy eventually return; the stage must
	// return exactly one result per index and remain deterministic.
	cfg := Config{TaskBytes: 1, ResultBytes: 1, SpeculationQuantile: 0.5}
	run := func() []any {
		sim, _, ctx := testCluster(4, cfg)
		var res []any
		runOnDriver(sim, func(p *des.Proc) {
			res = ctx.RunStage(p, "s", speculationStage(ctx, 4, 1, true))
		})
		return res
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] || a[i].(int) != i {
			t.Fatalf("results unstable: %v vs %v", a, b)
		}
	}
}

func TestSpeculationOffByDefault(t *testing.T) {
	runs := 0
	sim, _, ctx := testCluster(2, Config{TaskBytes: 1, ResultBytes: 1})
	runOnDriver(sim, func(p *des.Proc) {
		tasks := []Task{
			{Exec: "exec0", Speculatable: true, Run: func(p *des.Proc, ex *Executor) (any, float64) {
				runs++
				ex.Charge(p, 10)
				return 0, 8
			}},
			{Exec: "exec1", Speculatable: true, Run: func(p *des.Proc, ex *Executor) (any, float64) {
				runs++
				ex.Charge(p, 100000)
				return 1, 8
			}},
		}
		ctx.RunStage(p, "s", tasks)
	})
	if runs != 2 {
		t.Errorf("tasks ran %d times with speculation off, want 2", runs)
	}
}
