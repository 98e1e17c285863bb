package des

import "testing"

func TestForkRunsChildAtCurrentTimeAndJoins(t *testing.T) {
	s := New()
	var childStart, childEnd, joinAt float64
	s.Spawn("parent", func(p *Proc) {
		p.Wait(1)
		j := Fork(p, "child", func(c *Proc) {
			childStart = c.Now()
			c.Wait(3)
			childEnd = c.Now()
		})
		p.Wait(0.5) // the parent keeps running while the child works
		j.Wait(p)
		joinAt = p.Now()
	})
	s.Run()
	if childStart != 1 {
		t.Errorf("child started at %g, want 1 (fork time)", childStart)
	}
	if childEnd != 4 {
		t.Errorf("child ended at %g, want 4", childEnd)
	}
	if joinAt != 4 {
		t.Errorf("join returned at %g, want 4 (the later of parent and child)", joinAt)
	}
}

func TestForkJoinAfterChildAlreadyDone(t *testing.T) {
	s := New()
	var joinAt float64
	s.Spawn("parent", func(p *Proc) {
		j := Fork(p, "quick", func(c *Proc) { c.Wait(1) })
		p.Wait(10)
		j.Wait(p) // completion token is queued; Wait returns immediately
		joinAt = p.Now()
	})
	s.Run()
	if joinAt != 10 {
		t.Errorf("join returned at %g, want 10", joinAt)
	}
}

// TestIdent pins the process identity of the causal trace: "name#id" with the
// spawn id, distinct for processes that share a name, and the same string —
// not a fresh one — on every call.
func TestIdent(t *testing.T) {
	s := New()
	var parent, first, second *Proc
	parent = s.Spawn("driver:mgd", func(p *Proc) {
		j1 := Fork(p, "send", func(*Proc) {})
		j2 := Fork(p, "send", func(*Proc) {})
		first, second = j1.Proc(), j2.Proc()
		j1.Wait(p)
		j2.Wait(p)
	})
	s.Run()
	for _, tc := range []struct {
		p    *Proc
		want string
	}{{parent, "driver:mgd#0"}, {first, "send#1"}, {second, "send#2"}} {
		if got := tc.p.Ident(); got != tc.want {
			t.Errorf("Ident() = %q, want %q", got, tc.want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = parent.Ident() }); allocs != 0 {
		t.Errorf("Ident() allocates %.0f objects per call once built, want 0", allocs)
	}
}
