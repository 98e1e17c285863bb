package vec

import (
	"math"
	"strings"
	"testing"
)

// mustPanic runs f and requires a panic whose message contains want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one mentioning %q", r, want)
		}
	}()
	f()
}

// TestPoolChecksOwnership holds the test-binary pool to its run-time
// ownership checks: a Put buffer reads NaN; a buffer Put twice, or written
// after its Put, panics when the pool hands it out again; and zero-length
// buffers are not checked.
func TestPoolChecksOwnership(t *testing.T) {
	if !checked {
		t.Fatal("the pool's ownership checks are off in a test binary")
	}
	p := NewPool()
	b := p.Get(4)
	b[1] = 3
	p.Put(b)
	if !math.IsNaN(b[1]) {
		t.Errorf("a Put buffer reads %g, want the NaN poison", b[1])
	}
	if got := p.Get(4); &got[0] != &b[0] || got[1] != 0 {
		t.Errorf("Get after Put: recycled %v, got %v, want the same buffer cleared", &got[0] == &b[0], got)
	}

	t.Run("double Put", func(t *testing.T) {
		p := NewPool()
		b := p.Get(8)
		p.Put(b)
		p.Put(b)
		mustPanic(t, "Put twice", func() { p.Get(8) })
	})
	t.Run("write after Put", func(t *testing.T) {
		for _, name := range []string{"Get", "Copy"} {
			p := NewPool()
			b := p.Get(8)
			p.Put(b)
			b[7] = 1
			mustPanic(t, "written after its Put", func() {
				if name == "Get" {
					p.Get(8)
				} else {
					p.Copy(make([]float64, 8))
				}
			})
		}
	})
	t.Run("zero length", func(t *testing.T) {
		p := NewPool()
		b := p.Get(0)
		p.Put(b)
		p.Put(b)
		p.Get(0)
		p.Get(0)
	})
}
