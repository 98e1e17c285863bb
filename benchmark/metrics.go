package main

// metricDef declares one metric of the benchmark. BENCHMARK.json carries the
// same names, units, directions and bounds; the test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // lower | higher
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	exact  bool    // repeats bit for bit at one seed; -compare compares it bitwise
}

// endToEnd are the metrics a user of the system sees, the same on every
// workload. A bound is about three times the widest spread the metric showed
// on any workload over ten seeds (README.md, noise tables). The simulated
// metrics repeat exactly at one seed, which -compare and -selfcheck enforce;
// their bounds here cover the spread between seeds and nothing else.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.20},
	{name: "sim_s", unit: "s", better: "lower", bound: 0.25, exact: true},
	{name: "comm_mb", unit: "MB", better: "lower", bound: 0.15, exact: true},
	{name: "objective", unit: "loss", better: "lower", bound: 0.25, exact: true},
}

// perLayer are the metrics of single layers, measured by a traced run from
// outside the program: spans around calls into each layer's public functions
// on the workload's own inputs, executor count and model size.
var perLayer = perLayerDefs()

func perLayerDefs() []metricDef {
	ns := func(name, unit string) metricDef {
		return metricDef{name: name, unit: unit, better: "lower"}
	}
	exact := func(name, unit, better string) metricDef {
		return metricDef{name: name, unit: unit, better: better, exact: true}
	}
	defs := []metricDef{
		ns("data.generate_ns_per_nnz", "ns/nnz"),
		ns("data.partition_ns_per_nnz", "ns/nnz"),
		ns("data.sgd_ns_per_nnz", "ns/nnz"),
		ns("data.grad_ns_per_nnz", "ns/nnz"),
		ns("data.gradrows_ns_per_nnz", "ns/nnz"),
		ns("data.gradstream_ns_per_nnz", "ns/nnz"),
		ns("data.readlibsvm_ns_per_nnz", "ns/nnz"),
		ns("train.eval_ns_per_nnz", "ns/nnz"),
		ns("vec.addscaled_ns_per_elem", "ns/elem"),
		ns("sparse.encode_ns_per_elem", "ns/elem"),
		ns("sparse.decode_ns_per_elem", "ns/elem"),
		exact("sparse.density", "share", "lower"),
		ns("des.ns_per_switch", "ns"),
		ns("des.ns_per_event", "ns"),
		ns("des.ns_per_spawn", "ns"),
		ns("simnet.ns_per_message", "ns"),
		ns("simnet.allocs_per_message", "count"),
		ns("engine.ns_per_task", "ns"),
		ns("engine.exchange_ns_per_block", "ns"),
		ns("engine.treeagg_ns_per_step", "ns"),
		ns("allreduce.ns_per_superstep", "ns"),
		exact("allreduce.sim_s_per_superstep", "s", "lower"),
		exact("allreduce.bytes_per_superstep", "B", "lower"),
		ns("ps.ns_per_pull", "ns"),
		ns("ps.ns_per_push", "ns"),
		ns("par.ns_per_go", "ns"),
		exact("obs.events_per_rep", "count", "lower"),
		exact("obs.log_mb", "MB", "lower"),
		ns("obs.ns_per_event", "ns"),
		ns("obs.attribute_ns_per_event", "ns"),
		ns("obs.write_ns_per_event", "ns"),
		exact("causal.nodes", "count", "lower"),
		ns("causal.analyze_ns_per_node", "ns"),
		ns("causal.critpath_ns_per_node", "ns"),
		ns("causal.retime_ns_per_node", "ns"),
	}
	for _, l := range trainerLayers {
		defs = append(defs,
			ns(l+".wall_s", "s"),
			exact(l+".sim_s", "s", "lower"),
			exact(l+".steps", "count", "higher"),
		)
	}
	return append(defs,
		exact("sim.driver_share", "share", "lower"),
		exact("sim.network_share", "share", "lower"),
		exact("sim.compute_share", "share", "higher"),
		exact("sim.wait_share", "share", "lower"),
		exact("sim.critpath_driver_share", "share", "lower"),
		ns("runtime.gc_cpu_share", "share"),
		ns("runtime.gc_cycles_per_rep", "count"),
		ns("runtime.peak_rss_mb", "MB"),
		ns("runtime.wall_traced_s", "s"),
		ns("runtime.wall_untraced_s", "s"),
		ns("runtime.trace_overhead", "ratio"),
		ns("failed_share", "share"),
	)
}

func defByName(name string) *metricDef {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for i := range list {
			if list[i].name == name {
				return &list[i]
			}
		}
	}
	return nil
}
