package engine

import (
	"math"
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

func TestHashPartitionerStableAndInRange(t *testing.T) {
	part := HashPartitioner[string](4)
	for _, key := range []string{"a", "hello", "", "kdd12"} {
		p1, p2 := part(key), part(key)
		if p1 != p2 {
			t.Errorf("unstable for %q", key)
		}
		if p1 < 0 || p1 >= 4 {
			t.Errorf("out of range: %d", p1)
		}
	}
	// Different keys should spread (not all in one bucket).
	buckets := map[int]bool{}
	for i := 0; i < 50; i++ {
		buckets[part(string(rune('a'+i)))] = true
	}
	if len(buckets) < 2 {
		t.Error("no spread across partitions")
	}
}

func pairsRDD(ctx *Context, k int, data []Pair[string, int]) *RDD[Pair[string, int]] {
	parts := make([][]Pair[string, int], k)
	for i, e := range data {
		parts[i%k] = append(parts[i%k], e)
	}
	return Parallelize(ctx, "pairs", parts)
}

func TestReduceByKey(t *testing.T) {
	sim, _, ctx := exchangeCluster(3)
	data := []Pair[string, int]{
		{"a", 1}, {"b", 2}, {"a", 3}, {"c", 4}, {"b", 5}, {"a", 6},
	}
	got := map[string]int{}
	sim.Spawn("driver", func(p *des.Proc) {
		rdd := pairsRDD(ctx, 3, data)
		reduced := ReduceByKey(p, rdd, "sum", 16, func(a, b int) int { return a + b })
		for _, part := range Collect(p, reduced, 16) {
			for _, e := range part {
				got[e.Key] += e.Value
			}
		}
	})
	sim.Run()
	want := map[string]int{"a": 10, "b": 7, "c": 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestReduceByKeyColocatesKeys(t *testing.T) {
	// After the shuffle every key must appear in exactly one partition.
	sim, _, ctx := exchangeCluster(4)
	var data []Pair[string, int]
	rng := rand.New(rand.NewSource(5))
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6"}
	for i := 0; i < 200; i++ {
		data = append(data, Pair[string, int]{keys[rng.Intn(len(keys))], 1})
	}
	sim.Spawn("driver", func(p *des.Proc) {
		rdd := pairsRDD(ctx, 4, data)
		reduced := ReduceByKey(p, rdd, "sum", 16, func(a, b int) int { return a + b })
		seen := map[string]int{}
		for _, part := range Collect(p, reduced, 16) {
			for _, e := range part {
				seen[e.Key]++
			}
		}
		for key, n := range seen {
			if n != 1 {
				t.Errorf("key %q appears in %d partitions", key, n)
			}
		}
	})
	sim.Run()
}

func TestGroupByKey(t *testing.T) {
	sim, _, ctx := exchangeCluster(2)
	data := []Pair[string, int]{{"x", 1}, {"y", 2}, {"x", 3}}
	got := map[string][]int{}
	sim.Spawn("driver", func(p *des.Proc) {
		rdd := pairsRDD(ctx, 2, data)
		grouped := GroupByKey(p, rdd, "grp", 16)
		for _, part := range Collect(p, grouped, 16) {
			for _, e := range part {
				vals := append([]int(nil), e.Value...)
				sort.Ints(vals)
				got[e.Key] = vals
			}
		}
	})
	sim.Run()
	want := map[string][]int{"x": {1, 3}, "y": {2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestCountByKey(t *testing.T) {
	sim, _, ctx := exchangeCluster(3)
	data := []Pair[string, int]{{"a", 9}, {"a", 9}, {"b", 9}}
	var got map[string]int
	sim.Spawn("driver", func(p *des.Proc) {
		got = CountByKey(p, pairsRDD(ctx, 3, data), "cnt")
	})
	sim.Run()
	if !reflect.DeepEqual(got, map[string]int{"a": 2, "b": 1}) {
		t.Errorf("got %v", got)
	}
}

// TestShuffleRepeatsBitForBit runs one GroupByKey five times: the order of
// each group's values (arrival order at the key's owner) and the virtual end
// time must repeat exactly. The order in which an executor sends its blocks
// decides both.
func TestShuffleRepeatsBitForBit(t *testing.T) {
	const k = 5
	var data []Pair[string, int]
	for i := 0; i < 200; i++ {
		data = append(data, Pair[string, int]{string(rune('a' + i%13)), i})
	}
	run := func() ([][]Pair[string, []int], float64) {
		sim, _, ctx := exchangeCluster(k)
		var parts [][]Pair[string, []int]
		sim.Spawn("driver", func(p *des.Proc) {
			parts = Collect(p, GroupByKey(p, pairsRDD(ctx, k, data), "grp", 16), 16)
		})
		sim.Run()
		return parts, sim.Now()
	}
	want, wantEnd := run()
	for r := 1; r < 5; r++ {
		got, end := run()
		if !reflect.DeepEqual(got, want) || math.Float64bits(end) != math.Float64bits(wantEnd) {
			t.Fatalf("run %d: groups or end time %v differ from run 0's (end %v)", r, end, wantEnd)
		}
	}
}

// TestShuffleConservationProperty: for random keyed data, ReduceByKey over
// + equals the plain sum per key — no element lost or duplicated by the
// exchange.
func TestShuffleConservationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		n := 10 + rng.Intn(100)
		var data []Pair[string, int]
		want := map[string]int{}
		for i := 0; i < n; i++ {
			key := string(rune('a' + rng.Intn(10)))
			v := rng.Intn(100)
			data = append(data, Pair[string, int]{key, v})
			want[key] += v
		}
		sim, _, ctx := exchangeCluster(k)
		got := map[string]int{}
		sim.Spawn("driver", func(p *des.Proc) {
			rdd := pairsRDD(ctx, k, data)
			reduced := ReduceByKey(p, rdd, "sum", 16, func(a, b int) int { return a + b })
			for _, part := range Collect(p, reduced, 16) {
				for _, e := range part {
					got[e.Key] += e.Value
				}
			}
		})
		sim.Run()
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
