package par

import (
	"slices"
	"sync/atomic"
	"testing"
)

// restore resets the pool to the default configuration after a test mutated
// it; the package-level state is shared across tests in the binary.
func restore() { Configure(true, 0) }

func TestJoinReturnsWork(t *testing.T) {
	defer restore()
	for _, force := range []bool{false, true} {
		if force {
			ForceEnable(4)
		} else {
			Configure(false, 0)
		}
		h := Go(func() float64 { return 42.5 })
		if got := h.Join(); got != 42.5 {
			t.Fatalf("force=%v: Join = %g, want 42.5", force, got)
		}
		// Joining again returns the same value without re-running.
		if got := h.Join(); got != 42.5 {
			t.Fatalf("force=%v: second Join = %g", force, got)
		}
	}
}

func TestLazyHandleRunsOnce(t *testing.T) {
	defer restore()
	Configure(false, 0)
	var runs atomic.Int32
	h := Go(func() float64 { return float64(runs.Add(1)) })
	if runs.Load() != 0 {
		t.Fatal("disabled pool ran the closure at submit time")
	}
	h.Join()
	h.Join()
	if runs.Load() != 1 {
		t.Fatalf("closure ran %d times, want 1", runs.Load())
	}
}

func TestPanicPropagatesAtJoin(t *testing.T) {
	defer restore()
	for _, force := range []bool{false, true} {
		if force {
			ForceEnable(2)
		} else {
			Configure(false, 0)
		}
		h := Go(func() float64 { panic("kernel exploded") })
		func() {
			defer func() {
				if r := recover(); r != "kernel exploded" {
					t.Errorf("force=%v: recovered %v", force, r)
				}
			}()
			h.Join()
			t.Errorf("force=%v: Join did not panic", force)
		}()
	}
}

func TestConcurrentClosuresAllComplete(t *testing.T) {
	defer restore()
	ForceEnable(4)
	const n = 64
	var sum atomic.Int64
	handles := make([]*Handle, n)
	for i := range handles {
		i := i
		handles[i] = Go(func() float64 {
			sum.Add(int64(i))
			return float64(i)
		})
	}
	total := 0.0
	for _, h := range handles {
		total += h.Join()
	}
	want := float64(n*(n-1)) / 2
	if total != want {
		t.Fatalf("joined work %g, want %g", total, want)
	}
	if sum.Load() != int64(want) {
		t.Fatalf("side-effect sum %d, want %d", sum.Load(), int64(want))
	}
}

func TestDoChargesZero(t *testing.T) {
	defer restore()
	ForceEnable(2)
	ran := false
	h := Do(func() { ran = true })
	if got := h.Join(); got != 0 {
		t.Fatalf("Do handle work = %g, want 0", got)
	}
	if !ran {
		t.Fatal("Do closure did not run")
	}
}

// bothModes runs f with the pool disabled and with it forced on.
func bothModes(t *testing.T, f func(t *testing.T, force bool)) {
	defer restore()
	for _, force := range []bool{false, true} {
		if force {
			ForceEnable(2)
		} else {
			Configure(false, 0)
		}
		f(t, force)
	}
}

func TestGoPartsRunsEveryPartOnce(t *testing.T) {
	bothModes(t, func(t *testing.T, force bool) {
		for _, n := range []int{0, 1, 2, 7, 100} {
			runs := make([]atomic.Int32, n)
			h := GoParts(n, func(i int) { runs[i].Add(1) })
			if got := h.Join(); got != 0 {
				t.Fatalf("force=%v n=%d: Join = %g, want 0", force, n, got)
			}
			h.Join()
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Fatalf("force=%v n=%d: part %d ran %d times, want 1", force, n, i, c)
				}
			}
		}
	})
}

func TestGoPartsLazyRunsInIndexOrderAtJoin(t *testing.T) {
	defer restore()
	Configure(false, 0)
	var order []int
	h := GoParts(5, func(i int) { order = append(order, i) })
	if len(order) != 0 {
		t.Fatal("disabled pool ran a part at submit time")
	}
	h.Join()
	h.Join()
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("parts ran in order %v, want %v", order, want)
	}
}

// TestGoPartsJoinHelps blocks the part the pool goroutine claims first on a
// gate that only opens once every other part has run: Join can return only
// if the joining thread ran those parts itself, and it must still wait for
// the gated part in flight.
func TestGoPartsJoinHelps(t *testing.T) {
	defer restore()
	ForceEnable(2)
	const n = 8
	gate := make(chan struct{})
	claimed := make(chan int, 1)
	var others atomic.Int32
	var gatedDone atomic.Bool
	h := GoParts(n, func(i int) {
		if i == 0 {
			claimed <- i
			<-gate
			gatedDone.Store(true)
			return
		}
		if others.Add(1) == n-1 {
			close(gate)
		}
	})
	<-claimed // the pool goroutine holds part 0; every other part is left
	h.Join()
	if others.Load() != n-1 || !gatedDone.Load() {
		t.Fatalf("Join returned with %d of %d other parts run, gated part finished = %v", others.Load(), n-1, gatedDone.Load())
	}
}

func TestGoPartsPanicAtJoin(t *testing.T) {
	bothModes(t, func(t *testing.T, force bool) {
		var runs atomic.Int32
		h := GoParts(6, func(i int) {
			runs.Add(1)
			if i == 3 {
				panic("part exploded")
			}
		})
		for j := 0; j < 2; j++ {
			func() {
				defer func() {
					if r := recover(); r != "part exploded" {
						t.Errorf("force=%v join %d: recovered %v", force, j, r)
					}
				}()
				h.Join()
				t.Errorf("force=%v join %d: Join did not panic", force, j)
			}()
		}
		if runs.Load() != 6 {
			t.Fatalf("force=%v: %d parts ran, want all 6 once", force, runs.Load())
		}
	})
}

// TestGoPartsDisjointWritesRace has the pool goroutine and the joiner write
// disjoint blocks of one buffer that the caller then reads; under -race it
// checks the happens-before edge from every part to the join.
func TestGoPartsDisjointWritesRace(t *testing.T) {
	defer restore()
	ForceEnable(2)
	const n, block = 64, 16
	out := make([]float64, n*block)
	for round := 0; round < 20; round++ {
		GoParts(n, func(b int) {
			for i := b * block; i < (b+1)*block; i++ {
				out[i] = float64(i + round)
			}
		}).Join()
		for i, v := range out {
			if v != float64(i+round) {
				t.Fatalf("round %d: out[%d] = %g", round, i, v)
			}
		}
	}
}
