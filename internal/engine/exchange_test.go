package engine

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"mllibstar/internal/des"
	"mllibstar/internal/obs"
	"mllibstar/internal/simnet"
)

// exchangeCluster builds a k-executor cluster for shuffle tests.
func exchangeCluster(k int) (*des.Sim, *Cluster, *Context) {
	sim := des.New()
	specs := []simnet.NodeSpec{{Name: "driver", ComputeRate: 1e6, SendBW: 1e6, RecvBW: 1e6}}
	specs = append(specs, simnet.Uniform("exec", k, 1e6, 1e6)...)
	cl := NewCluster(sim, simnet.Config{OverheadBytes: 32}, specs, obs.NewSink())
	return sim, cl, NewContext(cl, Config{TaskBytes: 64, ResultBytes: 32})
}

func TestExchangeDeliversAllBlocks(t *testing.T) {
	const k = 4
	sim, cl, ctx := exchangeCluster(k)
	got := make([][]int, k)
	sim.Spawn("driver", func(p *des.Proc) {
		tasks := make([]Task, k)
		for i := 0; i < k; i++ {
			i := i
			tasks[i] = Task{Exec: cl.Execs[i], Run: func(p *des.Proc, ex *Executor) (any, float64) {
				var out []Block
				for d := 0; d < k; d++ {
					if d != i {
						out = append(out, Block{To: d, Bytes: 10, Payload: i*10 + d})
					}
				}
				for _, b := range Exchange(p, ex, cl.Execs, i, "t", out) {
					got[i] = append(got[i], b.Payload.(int))
				}
				return nil, 0
			}}
		}
		ctx.RunStage(p, "x", tasks)
	})
	sim.Run()
	for i := 0; i < k; i++ {
		sort.Ints(got[i])
		want := []int{}
		for s := 0; s < k; s++ {
			if s != i {
				want = append(want, s*10+i)
			}
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("executor %d got %v, want %v", i, got[i], want)
		}
	}
}

func TestExchangeValidation(t *testing.T) {
	sim, cl, ctx := exchangeCluster(2)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for wrong block count")
		}
	}()
	sim.Spawn("driver", func(p *des.Proc) {
		ctx.RunStage(p, "x", []Task{{Exec: cl.Execs[0], Run: func(p *des.Proc, ex *Executor) (any, float64) {
			Exchange(p, ex, cl.Execs, 0, "t", nil) // needs 1 block
			return nil, 0
		}}})
	})
	sim.Run()
}

// TestShuffleConservationProperty: for random cluster sizes and block
// payloads, one Exchange round hands every executor exactly the k−1 blocks
// addressed to it, each once, stamped with its sender — no block is lost,
// duplicated or misdelivered.
func TestShuffleConservationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(5)
		sent := make([][]int, k) // sent[from][to] is the payload of that block
		for i := range sent {
			sent[i] = make([]int, k)
			for d := range sent[i] {
				sent[i][d] = rng.Intn(1000)
			}
		}
		sim, cl, ctx := exchangeCluster(k)
		got := make([][]Block, k)
		sim.Spawn("driver", func(p *des.Proc) {
			tasks := make([]Task, k)
			for i := 0; i < k; i++ {
				i := i
				tasks[i] = Task{Exec: cl.Execs[i], Run: func(p *des.Proc, ex *Executor) (any, float64) {
					out := make([]Block, 0, k-1)
					for d := 0; d < k; d++ {
						if d != i {
							out = append(out, Block{To: d, Bytes: float64(1 + sent[i][d]), Payload: sent[i][d]})
						}
					}
					got[i] = Exchange(p, ex, cl.Execs, i, "t", out)
					return nil, 0
				}}
			}
			ctx.RunStage(p, "x", tasks)
		})
		sim.Run()
		for i, in := range got {
			from := make([]bool, k)
			for _, b := range in {
				if b.To != i || b.From == i || from[b.From] || b.Payload.(int) != sent[b.From][i] {
					return false
				}
				from[b.From] = true
			}
			if len(in) != k-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
