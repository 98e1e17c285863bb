package des

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// kernelOrderTrace runs one scenario that mixes every primitive — waits,
// equal-time ties, Queue FIFO across waiters, a poll that runs before and
// after an equal-time Put, a Get that a later Put serves, Barrier, Signal,
// Fork/Join (one child never joined), Resource and processes still blocked
// at shutdown — and returns one "time process what" line per resume, in
// resume order. The "until" and "stale deadline" marks keep the golden's
// wording, captured when the kernel had a deadline receive that early and
// late raced.
func kernelOrderTrace() []string {
	s := New()
	var trace []string
	mark := func(p *Proc, format string, args ...any) {
		trace = append(trace, fmt.Sprintf("%.3f %s#%d ", p.Now(), p.Name(), p.ID())+fmt.Sprintf(format, args...))
	}
	q := NewQueue[int](s, "q")
	race := NewQueue[string](s, "race")
	bar := NewBarrier(s, "bar", 3)
	link := NewResource(s, "link")
	sig := NewSignal(s, "go")
	never := NewQueue[int](s, "never")

	// early's t=3 wake-up is scheduled before the producer's, so its first
	// poll finds the queue empty and the value put at the same instant stays
	// queued for the poll early makes once the producer has run.
	s.Spawn("early", func(p *Proc) {
		p.Wait(3)
		v, ok := race.TryGet()
		mark(p, "until -> %q %v", v, ok)
		p.Yield()
		v, ok = race.TryGet()
		mark(p, "poll -> %q %v", v, ok)
	})
	// Three getters reach q in reverse spawn order (get2 at t=0, get1 at
	// t=1, get0 at t=2); the producer's burst at t=3 must serve them in
	// arrival order, after which they contend for the link and the barrier.
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("get%d", i), func(p *Proc) {
			mark(p, "start")
			p.Wait(float64(2 - i))
			mark(p, "at queue")
			v := q.Get(p)
			mark(p, "got %d", v)
			st, en := link.Acquire(p, 0.5)
			mark(p, "link [%g,%g)", st, en)
			g := bar.Arrive(p)
			mark(p, "barrier gen %d", g)
			sig.Await(p)
			mark(p, "signalled")
			p.Yield()
			mark(p, "yielded")
		})
	}
	s.Spawn("producer", func(p *Proc) {
		p.Wait(3)
		mark(p, "burst")
		for v := 100; v < 104; v++ { // the fourth value stays buffered
			q.Put(v)
		}
		race.Put("at-deadline")
		p.Wait(1)
		mark(p, "late put")
		race.Put("late")
		p.Wait(4)
		mark(p, "fire")
		sig.Fire()
	})
	// late blocks on the empty queue at t=3.5; the producer's t=4 Put hands
	// it the value directly.
	s.Spawn("late", func(p *Proc) {
		p.Wait(3.5)
		v := race.Get(p)
		mark(p, "until -> %q %v", v, true)
		p.Wait(2)
		mark(p, "after stale deadline")
		if v, ok := q.TryGet(); ok {
			mark(p, "tryget %d", v)
		}
	})
	s.Spawn("parent", func(p *Proc) {
		p.Wait(1)
		child := func(d float64) func(*Proc) {
			return func(c *Proc) {
				mark(c, "child start")
				c.Wait(d)
				mark(c, "child end")
			}
		}
		slow := Fork(p, "child", child(2))
		fast := Fork(p, "child", child(0))
		Fork(p, "orphan", func(c *Proc) {
			defer mark(c, "orphan unwound")
			never.Get(c)
		})
		mark(p, "forked")
		slow.Wait(p)
		mark(p, "joined slow")
		fast.Wait(p)
		mark(p, "joined fast")
	})
	for i := 0; i < 2; i++ {
		s.Spawn("stuck", func(p *Proc) {
			defer mark(p, "stuck unwound")
			never.Get(p)
		})
	}
	end := s.Run()
	return append(trace, fmt.Sprintf("%.3f end", end))
}

// TestKernelOrderGolden pins the (time, process) resume order of the mixed
// scenario. The golden was captured on the goroutine-handshake kernel this
// one replaced, so it proves the process-switch mechanism is invisible to
// the simulation without going through a trainer.
func TestKernelOrderGolden(t *testing.T) {
	const path = "testdata/kernel_order.golden"
	got := strings.Join(kernelOrderTrace(), "\n") + "\n"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("resume trace differs from %s:\n%s", path, got)
	}
}

// TestPanicForwarding: a panic in a process function is re-raised on the
// goroutine that called Run, carrying the process name, the panic value and
// the stack of the panicking process.
func TestPanicForwarding(t *testing.T) {
	s := New()
	s.Spawn("bystander", func(p *Proc) { p.Wait(10) })
	s.Spawn("faulty", func(p *Proc) {
		p.Wait(1)
		explode()
	})
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		s.Run()
	}()
	for _, want := range []string{`des: process "faulty" panicked: boom 42`, "des.explode"} {
		if !strings.Contains(msg, want) {
			t.Errorf("re-raised panic does not mention %q:\n%s", want, msg)
		}
	}
	if s.Now() != 1 {
		t.Errorf("panic surfaced at t=%g, want 1", s.Now())
	}
}

//go:noinline
func explode() { panic(fmt.Sprintf("boom %d", 42)) }

// TestShutdownUnwindsAndFreesProcesses: Run unwinds whatever is still
// blocked — a server on an empty queue, a never-joined Fork, a process
// parked on a signal — running their deferred functions in spawn order, and
// leaves no goroutine behind.
func TestShutdownUnwindsAndFreesProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	never := NewQueue[int](s, "never")
	sig := NewSignal(s, "never")
	var unwound []string
	s.Spawn("server", func(p *Proc) {
		defer func() { unwound = append(unwound, p.Name()) }()
		never.Get(p)
		t.Error("server resumed")
	})
	s.Spawn("parent", func(p *Proc) {
		Fork(p, "orphan", func(c *Proc) {
			defer func() { unwound = append(unwound, c.Name()) }()
			sig.Await(c)
		})
		p.Wait(1)
	})
	s.Spawn("waiter", func(p *Proc) {
		defer func() { unwound = append(unwound, p.Name()) }()
		p.Wait(0.75)
		sig.Await(p)
	})
	if end := s.Run(); end != 1 {
		t.Errorf("end = %g, want 1", end)
	}
	if got := strings.Join(unwound, " "); got != "server waiter orphan" {
		t.Errorf("unwound = %q, want spawn order \"server waiter orphan\"", got)
	}
	if left := s.Blocked(); len(left) != 0 {
		t.Errorf("Blocked after Run = %q", left)
	}
	waitGoroutines(t, before)
}

// waitGoroutines waits for the goroutine count to fall back to want: an
// exiting goroutine is unaccounted a moment after the switch that ended it.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestBlockedStrings pins the text of every block reason.
func TestBlockedStrings(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "inbox")
	bar := NewBarrier(s, "bsp", 3)
	sig := NewSignal(s, "go")
	s.Spawn("a-wait", func(p *Proc) { p.Wait(2.5) })
	s.Spawn("b-recv", func(p *Proc) { q.Get(p) })
	s.Spawn("d-bar", func(p *Proc) { bar.Arrive(p) })
	s.Spawn("e-bar", func(p *Proc) { bar.Arrive(p) })
	s.Spawn("f-sig", func(p *Proc) { sig.Await(p) })
	link := NewResource(s, "link")
	s.Spawn("g-res", func(p *Proc) { link.Acquire(p, 1.125) })
	var report []string
	s.Spawn("watch", func(p *Proc) {
		p.Wait(1)
		report = s.Blocked()
	})
	s.Run()
	want := []string{
		`a-wait: wait until t=2.500000`,
		`b-recv: recv on queue "inbox"`,
		`d-bar: barrier "bsp" gen 0 (1/3 arrived)`,
		`e-bar: barrier "bsp" gen 0 (2/3 arrived)`,
		`f-sig: signal "go"`,
		`g-res: wait until t=1.125000`,
	}
	if strings.Join(report, "\n") != strings.Join(want, "\n") {
		t.Errorf("Blocked() =\n%s\nwant\n%s", strings.Join(report, "\n"), strings.Join(want, "\n"))
	}
}

// TestDesZeroAllocs: once its slices have grown, the kernel's block →
// schedule → dispatch → resume path allocates nothing — for a timed wait, a
// Put that hands its value to a blocked getter, and a Resource.Acquire.
func TestDesZeroAllocs(t *testing.T) {
	s := New()
	ping, pong := NewQueue[*int](s, "ping"), NewQueue[*int](s, "pong")
	link := NewResource(s, "link")
	s.Spawn("echo", func(p *Proc) {
		for {
			pong.Put(ping.Get(p))
		}
	})
	s.Spawn("measured", func(p *Proc) {
		token := new(int)
		for name, fn := range map[string]func(){
			"Wait":    func() { p.Wait(1) },
			"handoff": func() { ping.Put(token); pong.Get(p) }, // both Gets find their queue empty and block
			"Acquire": func() { link.Acquire(p, 1) },
		} {
			if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
				t.Errorf("%s: %g allocs/op, want 0", name, allocs)
			}
		}
	})
	s.Run()
}

// BenchmarkDesSwitch bounces a token between two processes through a pair of
// queues; every hop is one scheduled event and one process switch.
func BenchmarkDesSwitch(b *testing.B) {
	s := New()
	ping, pong := NewQueue[int](s, "ping"), NewQueue[int](s, "pong")
	s.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(1)
			pong.Get(p)
		}
	})
	s.Spawn("b", func(p *Proc) {
		for {
			pong.Put(ping.Get(p))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/switch")
}

// BenchmarkDesEvent has 128 processes sleep at staggered periods, so the
// event heap holds 128 entries and every pop resumes another process.
func BenchmarkDesEvent(b *testing.B) {
	const procs = 128
	s := New()
	for i := 0; i < procs; i++ {
		period := 1 + float64(i)/1024
		s.Spawn("sleeper", func(p *Proc) {
			for j := 0; j < b.N; j += procs {
				p.Wait(period)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
	events := (b.N + procs - 1) / procs * procs
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
