package simnet

import (
	"fmt"
	"math"
	"testing"

	"mllibstar/internal/des"
	"mllibstar/internal/obs"
)

const eps = 1e-9

func approx(a, b float64) bool { return math.Abs(a-b) <= eps*math.Max(1, math.Abs(b)) }

func twoNodes(lat float64, sink *obs.Sink) (*des.Sim, *Network) {
	sim := des.New()
	specs := []NodeSpec{
		{Name: "a", ComputeRate: 100, SendBW: 10, RecvBW: 10},
		{Name: "b", ComputeRate: 100, SendBW: 10, RecvBW: 10},
	}
	return sim, New(sim, Config{Latency: lat}, specs, sink)
}

func TestPointToPointTiming(t *testing.T) {
	sim, net := twoNodes(0.5, nil)
	var deliverAt, senderFreeAt float64
	sim.Spawn("sender", func(p *des.Proc) {
		net.Node("a").Send(p, "b", "data", 100, "hello")
		senderFreeAt = p.Now()
	})
	sim.Spawn("receiver", func(p *des.Proc) {
		msg := net.Node("b").Recv(p, "data")
		deliverAt = p.Now()
		if msg.Payload.(string) != "hello" {
			t.Errorf("payload = %v", msg.Payload)
		}
	})
	sim.Run()
	// Sender: 100 bytes / 10 B/s = 10s serialization.
	if !approx(senderFreeAt, 10) {
		t.Errorf("sender free at %g, want 10", senderFreeAt)
	}
	// Receiver: 10 (out) + 0.5 (latency) + 10 (in) = 20.5.
	if !approx(deliverAt, 20.5) {
		t.Errorf("delivered at %g, want 20.5", deliverAt)
	}
}

func TestIncastSerializesAtReceiver(t *testing.T) {
	// k senders each pushing m bytes to one receiver: the receiver's inbound
	// link serializes, so total time ~ k*m/recvBW — the driver bottleneck.
	const k = 4
	sim := des.New()
	specs := Uniform("w", k, 100, 10)
	specs = append(specs, NodeSpec{Name: "driver", ComputeRate: 100, SendBW: 10, RecvBW: 10})
	net := New(sim, Config{}, specs, nil)
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("w%d", i)
		sim.Spawn(name, func(p *des.Proc) {
			net.Node(name).Send(p, "driver", "grad", 100, nil)
		})
	}
	var done float64
	sim.Spawn("driver", func(p *des.Proc) {
		net.Node("driver").RecvN(p, "grad", k)
		done = p.Now()
	})
	sim.Run()
	// All senders transmit in parallel (10s each, done at t=10), then the
	// driver receives 4x100 bytes serially: 10 + 4*10 = 50.
	if !approx(done, 50) {
		t.Errorf("incast done at %g, want 50", done)
	}
}

func TestPairwiseExchangeParallelism(t *testing.T) {
	// In an AllReduce-style exchange each node receives only 1/k of the
	// model from each peer; receivers work in parallel, so the step time
	// stays ~m/BW regardless of k.
	const k = 4
	sim := des.New()
	net := New(sim, Config{}, Uniform("w", k, 100, 10), nil)
	var maxDone float64
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("w%d", i)
		sim.Spawn(name, func(p *des.Proc) {
			nd := net.Node(name)
			for j := 0; j < k; j++ {
				if peer := fmt.Sprintf("w%d", j); peer != name {
					nd.Send(p, peer, "part", 25, nil) // m/k bytes
				}
			}
			nd.RecvN(p, "part", k-1)
			if p.Now() > maxDone {
				maxDone = p.Now()
			}
		})
	}
	sim.Run()
	// Each node sends 3*25=75B (7.5s) and receives 75B serially (7.5s);
	// first arrival can only start after its sender serialized 25B (2.5s).
	// Total stays bounded by ~(send + recv) rather than k*m/BW.
	if maxDone > 16 {
		t.Errorf("pairwise exchange took %g, want ~15", maxDone)
	}
}

func TestComputeChargesByRate(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{}, []NodeSpec{
		{Name: "fast", ComputeRate: 200, SendBW: 1, RecvBW: 1},
		{Name: "slow", ComputeRate: 50, SendBW: 1, RecvBW: 1},
	}, nil)
	var fastT, slowT float64
	sim.Spawn("f", func(p *des.Proc) { net.Node("fast").Compute(p, 100); fastT = p.Now() })
	sim.Spawn("s", func(p *des.Proc) { net.Node("slow").Compute(p, 100); slowT = p.Now() })
	sim.Run()
	if !approx(fastT, 0.5) || !approx(slowT, 2) {
		t.Errorf("fast=%g slow=%g, want 0.5 and 2", fastT, slowT)
	}
}

func TestTrafficAccounting(t *testing.T) {
	sim, net := twoNodes(0, nil)
	sim.Spawn("a", func(p *des.Proc) {
		net.Node("a").Send(p, "b", "x", 100, nil)
		net.Node("a").Send(p, "b", "x", 50, nil)
	})
	sim.Spawn("b", func(p *des.Proc) { net.Node("b").RecvN(p, "x", 2) })
	sim.Run()
	if net.TotalBytes() != 150 || net.TotalMessages() != 2 {
		t.Errorf("total = %g bytes / %d msgs", net.TotalBytes(), net.TotalMessages())
	}
	if net.Node("a").BytesSent() != 150 || net.Node("b").BytesRecv() != 150 {
		t.Error("per-node accounting wrong")
	}
}

func TestOverheadBytesCharged(t *testing.T) {
	sim := des.New()
	net := New(sim, Config{OverheadBytes: 100}, Uniform("n", 2, 100, 10), nil)
	var done float64
	sim.Spawn("s", func(p *des.Proc) { net.Node("n0").Send(p, "n1", "x", 100, nil) })
	sim.Spawn("r", func(p *des.Proc) { net.Node("n1").Recv(p, "x"); done = p.Now() })
	sim.Run()
	// Wire size 200 bytes: 20s out + 20s in = 40.
	if !approx(done, 40) {
		t.Errorf("done = %g, want 40", done)
	}
	// Accounting tracks payload only.
	if net.TotalBytes() != 100 {
		t.Errorf("payload bytes = %g, want 100", net.TotalBytes())
	}
}

func TestTagsAreIndependentMailboxes(t *testing.T) {
	sim, net := twoNodes(0, nil)
	var got []string
	sim.Spawn("a", func(p *des.Proc) {
		net.Node("a").Send(p, "b", "first", 1, "1")
		net.Node("a").Send(p, "b", "second", 1, "2")
	})
	sim.Spawn("b", func(p *des.Proc) {
		// Receive in reverse tag order: must not deadlock or cross wires.
		m2 := net.Node("b").Recv(p, "second")
		m1 := net.Node("b").Recv(p, "first")
		got = append(got, m2.Payload.(string), m1.Payload.(string))
	})
	sim.Run()
	if len(got) != 2 || got[0] != "2" || got[1] != "1" {
		t.Errorf("got %v", got)
	}
}

func TestTraceSpansRecorded(t *testing.T) {
	sim, net := twoNodes(0, obs.NewSink())
	sim.Spawn("a", func(p *des.Proc) { net.Node("a").Send(p, "b", "x", 100, nil) })
	sim.Spawn("b", func(p *des.Proc) { net.Node("b").Recv(p, "x") })
	sim.Run()
	bt := obs.GanttFromEvents(net.Sink().Events()).BusyTime()
	if !approx(bt["a"]["send"], 10) {
		t.Errorf("send span = %v", bt["a"])
	}
	if !approx(bt["b"]["recv"], 10) {
		t.Errorf("recv span = %v", bt["b"])
	}
}

func TestUnknownNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	sim, net := twoNodes(0, nil)
	_ = sim
	net.Node("nope")
}

func TestUniformSpecs(t *testing.T) {
	specs := Uniform("e", 3, 10, 20)
	if len(specs) != 3 || specs[2].Name != "e2" || specs[0].SendBW != 20 {
		t.Errorf("specs = %+v", specs)
	}
}

// TestHooksStampCausalIdentity checks that the compute, send and receive
// hooks stamp their events with the recording process's identity,
// des.Proc.Ident.
func TestHooksStampCausalIdentity(t *testing.T) {
	sink := obs.NewSink()
	sim, net := twoNodes(0.5, sink)
	sim.Spawn("sender", func(p *des.Proc) {
		net.Node("a").Compute(p, 100)
		net.Node("a").Send(p, "b", "data", 100, nil)
	})
	sim.Spawn("receiver", func(p *des.Proc) { net.Node("b").Recv(p, "data") })
	sim.Run()
	var procs []string
	for _, e := range sink.Events() {
		if e.Phase != obs.PhaseCausalSpec { // the network's self-description has no process
			procs = append(procs, e.Proc)
		}
	}
	if want := []string{"sender#0", "sender#0", "receiver#1"}; fmt.Sprint(procs) != fmt.Sprint(want) {
		t.Errorf("events carry the identities %q, want %q (compute, send, recv)", procs, want)
	}
}

// TestSendRecvZeroAllocs: once warm, a message's round trip — Send, delivery
// into a mailbox, Recv — allocates nothing: the message comes from the
// network's free list and goes back on Recv, and the mailbox, drained by
// every Recv, stays under its tag.
func TestSendRecvZeroAllocs(t *testing.T) {
	sim, net := twoNodes(0.5, nil)
	a, b := net.Node("a"), net.Node("b")
	sim.Spawn("echo", func(p *des.Proc) {
		for {
			m := b.Recv(p, "ping")
			b.Send(p, "a", "pong", m.Bytes, m.Payload)
		}
	})
	sim.Spawn("measured", func(p *des.Proc) {
		token := new(int)
		if allocs := testing.AllocsPerRun(100, func() {
			a.Send(p, "b", "ping", 64, token)
			if m := a.Recv(p, "pong"); m.Payload != token {
				t.Errorf("payload %v, want the token sent", m.Payload)
			}
		}); allocs != 0 {
			t.Errorf("%g allocs per round trip of two messages, want 0", allocs)
		}
	})
	sim.Run()
}

// TestMailboxesReclaimed: a new tag reclaims the mailboxes Recv drained, so
// a node that has seen 100 tags one after another holds one mailbox, not
// 100.
func TestMailboxesReclaimed(t *testing.T) {
	sim, net := twoNodes(0, nil)
	sim.Spawn("sender", func(p *des.Proc) {
		for i := range 100 {
			net.Node("a").Send(p, "b", fmt.Sprintf("t%d", i), 8, nil)
		}
	})
	sim.Spawn("receiver", func(p *des.Proc) {
		for i := range 100 {
			net.Node("b").Recv(p, fmt.Sprintf("t%d", i))
		}
	})
	sim.Run()
	if held, spare := net.Node("b").Mailboxes(); held+spare != 1 {
		t.Errorf("after 100 tags b holds %d mailboxes under a tag and %d spare, want one in all", held, spare)
	}
}

// TestMessagesCheckOwnership: in a test binary a released message is
// poisoned, so releasing it twice, or taking it back after something wrote
// to it, panics.
func TestMessagesCheckOwnership(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	_, net := twoNodes(0, nil)
	m := net.newMessage()
	net.release(m)
	mustPanic("a second release", func() { net.release(m) })

	_, net = twoNodes(0, nil)
	m = net.newMessage()
	net.release(m)
	m.Bytes = 8
	mustPanic("taking a message written after its release", func() { net.newMessage() })

	_, net = twoNodes(0, nil)
	net.release(net.newMessage())
	if m := net.newMessage(); *m != poison {
		t.Errorf("a recycled message holds %+v, want the poison", *m)
	}
}

// TestSharedTagMailboxReclaimedOnce: two receivers blocked on one tag are
// both handed a message before either resumes, and both find the mailbox
// drained. It must be reclaimed once, or two later tags would share it.
func TestSharedTagMailboxReclaimedOnce(t *testing.T) {
	sim := des.New()
	specs := []NodeSpec{
		{Name: "a", ComputeRate: 1, SendBW: 1, RecvBW: 1},
		{Name: "c", ComputeRate: 1, SendBW: 1, RecvBW: 1},
		{Name: "b", ComputeRate: 1, SendBW: 1, RecvBW: 1e9},
	}
	net := New(sim, Config{}, specs, nil)
	b := net.Node("b")
	for range 2 {
		sim.Spawn("receiver", func(p *des.Proc) { b.Recv(p, "x") })
	}
	// Both sends finish serializing at t = 8 and put their message into
	// x's mailbox before either receiver runs again.
	for _, from := range []string{"a", "c"} {
		sim.Spawn("sender", func(p *des.Proc) { net.Node(from).Send(p, "b", "x", 8, nil) })
	}
	got := map[string]any{}
	sim.Spawn("two tags", func(p *des.Proc) {
		p.WaitUntil(100)
		if held, spare := b.Mailboxes(); held+spare != 1 {
			t.Errorf("b holds %d mailboxes under a tag and %d spare, want one in all", held, spare)
		}
		net.Node("a").Send(p, "b", "y", 0, "for y")
		net.Node("a").Send(p, "b", "z", 0, "for z")
		got["z"] = b.Recv(p, "z").Payload
		got["y"] = b.Recv(p, "y").Payload
	})
	sim.Run()
	if got["y"] != "for y" || got["z"] != "for z" {
		t.Errorf("received %v, want each tag's own payload", got)
	}
}
