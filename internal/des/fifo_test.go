package des

import (
	"math/rand"
	"testing"
)

// TestFifoMatchesSlice drives a fifo and a plain slice with the same random
// pushes and pops, through growth, slides and drains, and checks
// after every step that they hold the same elements — and that the fifo's
// backing array holds nothing else: every dead slot is nil, so a popped
// pointer is not retained.
func TestFifoMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var f fifo[*int]
	var ref []*int
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(ref) == 0:
			v := new(int)
			f.push(v)
			ref = append(ref, v)
		default:
			if got := f.pop(); got != ref[0] {
				t.Fatalf("step %d: pop returned the wrong element", step)
			}
			ref = ref[1:]
		}
		if f.len() != len(ref) {
			t.Fatalf("step %d: fifo holds %d elements, reference %d", step, f.len(), len(ref))
		}
		for i, want := range ref {
			if f.buf[f.head+i] != want {
				t.Fatalf("step %d: element %d differs from the reference", step, i)
			}
		}
		for i, p := range f.buf[:cap(f.buf)] {
			if live := i >= f.head && i < len(f.buf); !live && p != nil {
				t.Fatalf("step %d: dead slot %d of the backing array still holds a pointer", step, i)
			}
		}
	}
}

// TestFifoNeverDrainedStaysSmall: a queue that always holds a few elements —
// a busy server's mailbox — reuses its array instead of growing with the
// traffic that has passed through it.
func TestFifoNeverDrainedStaysSmall(t *testing.T) {
	var f fifo[int]
	for i := 0; i < 3; i++ {
		f.push(i)
	}
	for i := 3; i < 100000; i++ {
		f.push(i)
		if got := f.pop(); got != i-3 {
			t.Fatalf("pop = %d, want %d", got, i-3)
		}
	}
	if cap(f.buf) > 16 {
		t.Errorf("backing array grew to %d slots for 3 live elements", cap(f.buf))
	}
}
