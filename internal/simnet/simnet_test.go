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
