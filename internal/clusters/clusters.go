// Package clusters defines the simulated cluster presets used across the
// experiments, mirroring the two testbeds of the paper's evaluation:
//
//   - Cluster 1: 9 nodes (1 driver + 8 executors) on a 1 Gbps network,
//     homogeneous — the public-dataset experiments (Figures 3–5).
//   - Cluster 2: a slice of Tencent's large production cluster on a 10 Gbps
//     network with heterogeneous per-task performance — the WX experiments
//     (Figure 6), where stragglers dominate scalability.
//
// Compute rates are expressed in "nonzeros processed per second", the work
// unit every trainer charges. The absolute values are calibrated so that
// the compute/communication balance of the scaled-down datasets matches the
// paper's regime; experiment conclusions depend on ratios, not absolutes.
package clusters

import (
	"fmt"

	"mllibstar/internal/des"
	"mllibstar/internal/engine"
	"mllibstar/internal/obs"
	"mllibstar/internal/simnet"
)

// Spec describes a simulated cluster.
type Spec struct {
	Name        string
	Executors   int
	ComputeRate float64 // nonzeros per second per node
	DriverRate  float64 // driver-node compute rate (0 = same as ComputeRate)
	// HeteroSpread makes worker speeds deterministic but unequal: node i of
	// n runs at ComputeRate / (1 + HeteroSpread·i/(n−1)), so the slowest
	// node is (1 + HeteroSpread)x slower than the fastest. 0 = homogeneous.
	HeteroSpread float64
	Bandwidth    float64 // NIC bandwidth in bytes/s (full duplex, per direction)
	Latency      float64 // one-way message latency in seconds
	Engine       engine.Config
}

// Cluster1 returns the paper's 9-node/1 Gbps testbed with the given number
// of executors (8 in the paper).
func Cluster1(executors int) Spec {
	return Spec{
		Name:        "cluster1",
		Executors:   executors,
		ComputeRate: 1e8,     // ~one core of sparse FLOPs
		Bandwidth:   125e6,   // 1 Gbps
		Latency:     0.00025, // LAN round-trip /2
		Engine: engine.Config{
			TaskBytes:     4096,
			ResultBytes:   1024,
			SchedulerWork: 2e4, // ~0.2 ms of driver time per task
		},
	}
}

// Cluster2 returns the Tencent-like testbed: 10 Gbps network and strongly
// heterogeneous per-task compute (the paper attributes Figure 6's poor
// scalability to stragglers in the large shared cluster).
func Cluster2(executors int) Spec {
	return Spec{
		Name:      "cluster2",
		Executors: executors,
		// Production nodes are heavily shared: the per-task compute share is
		// far below a dedicated core, which is what makes compute (not just
		// communication) matter at WX scale.
		ComputeRate: 2e7,
		DriverRate:  4e8, // the driver is a dedicated, unshared node
		Bandwidth:   1.25e9,
		Latency:     0.0005,
		Engine: engine.Config{
			TaskBytes:       4096,
			ResultBytes:     1024,
			SchedulerWork:   2e3,
			StragglerFactor: 2.0, // tasks may run up to 3x slower
			StragglerSeed:   1,
		},
	}
}

// CommBound returns a cluster tuned so one AllReduce's network serialization
// takes about as long as the fold-and-decode compute it carries: bandwidth is
// 8 bytes per nonzero-per-second of compute — exactly the dense wire cost of
// one model coordinate — so a superstep splits its time evenly between
// moving coordinates and combining them. This is the regime where pipelined
// supersteps pay best (max(compute, comm) approaches half of compute + comm)
// and the preset the pipeline speedup benchmarks run on.
func CommBound(executors int) Spec {
	return Spec{
		Name:        "commbound",
		Executors:   executors,
		ComputeRate: 1e8,
		Bandwidth:   8e8,
		Latency:     0.00002,
		Engine:      engine.Config{TaskBytes: 512, ResultBytes: 128},
	}
}

// Test returns a small fast cluster for unit tests: modest rates, no fixed
// overheads, fully deterministic.
func Test(executors int) Spec {
	return Spec{
		Name:        "test",
		Executors:   executors,
		ComputeRate: 1e7,
		Bandwidth:   1e7,
		Latency:     0.0001,
		Engine:      engine.Config{TaskBytes: 512, ResultBytes: 128},
	}
}

// BuildNet materializes the spec as a bare simulated network of worker
// nodes (no Spark driver) — the substrate for the parameter-server systems,
// which co-locate a server process and a worker process on each node. The
// returned names are the worker node names in order.
func (s Spec) BuildNet(sink *obs.Sink) (*des.Sim, *simnet.Network, []string) {
	if s.Executors <= 0 {
		panic(fmt.Sprintf("clusters: %d executors", s.Executors))
	}
	sim := des.New()
	specs := simnet.Uniform("worker", s.Executors, s.ComputeRate, s.Bandwidth)
	s.applySpread(specs)
	net := simnet.New(sim, simnet.Config{Latency: s.Latency, OverheadBytes: 64}, specs, sink)
	names := make([]string, s.Executors)
	for i := range names {
		names[i] = specs[i].Name
	}
	return sim, net, names
}

// Build materializes the spec: a fresh simulation, a cluster whose first
// node is the driver, and a Context configured with the spec's engine
// overheads. sink is the run's telemetry sink; nil records nothing.
func (s Spec) Build(sink *obs.Sink) (*des.Sim, *engine.Cluster, *engine.Context) {
	if s.Executors <= 0 {
		panic(fmt.Sprintf("clusters: %d executors", s.Executors))
	}
	sim := des.New()
	driverRate := s.DriverRate
	if driverRate <= 0 {
		driverRate = s.ComputeRate
	}
	specs := make([]simnet.NodeSpec, 0, s.Executors+1)
	specs = append(specs, simnet.NodeSpec{
		Name: "driver", ComputeRate: driverRate, SendBW: s.Bandwidth, RecvBW: s.Bandwidth,
	})
	workers := simnet.Uniform("executor", s.Executors, s.ComputeRate, s.Bandwidth)
	s.applySpread(workers)
	specs = append(specs, workers...)
	cl := engine.NewCluster(sim, simnet.Config{Latency: s.Latency, OverheadBytes: 64}, specs, sink)
	ctx := engine.NewContext(cl, s.Engine)
	return sim, cl, ctx
}

// applySpread slows node i of n by the deterministic heterogeneity factor.
func (s Spec) applySpread(specs []simnet.NodeSpec) {
	if s.HeteroSpread <= 0 || len(specs) < 2 {
		return
	}
	for i := range specs {
		frac := float64(i) / float64(len(specs)-1)
		specs[i].ComputeRate = s.ComputeRate / (1 + s.HeteroSpread*frac)
	}
}
