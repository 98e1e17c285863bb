package main

import (
	"fmt"
	"math"
	"strings"
)

// budgetRow is one line of a workload's budget table: a layer's measured unit
// cost times the number of units one repetition makes it do. With fixed work
// and one runnable simulated process at a time, a faster layer saves at most
// its row; a layer whose share is under 5 % is predicted to leave the
// workload's wall_s unchanged.
type budgetRow struct {
	Layer    string  `json:"layer"`
	UnitCost float64 `json:"unit_cost_ns"`
	Per      string  `json:"per"`
	Count    float64 `json:"count"`
	Seconds  float64 `json:"seconds"`
	Share    float64 `json:"share"`
	Detail   bool    `json:"detail,omitempty"` // part of a row above; not summed
}

// budget multiplies the unit costs the probes measured by the structural
// counts of one repetition, which follow from the workload's definition: the
// nonzeros a pass visits times the passes, the supersteps, the pulls and
// pushes, the telemetry events. The kernel unit costs are measured with the
// offload pool as busy as a superstep keeps it, so no row divides by a thread
// count.
func (r *run) budget(wall, events, nodes float64) []budgetRow {
	w, in := r.w, r.in
	cost := func(name string) float64 { return r.res.Metrics[name].Value }
	nnz, evalNNZ, k, dim := float64(in.nnz), float64(in.evalNNZ), float64(w.k), float64(in.dim)
	overlap := false
	for _, s := range w.switches {
		overlap = overlap || s == "-overlap"
	}

	var sgd, grad, gradRows, stream, part, eval, supersteps, treeagg, pulls, pushes, dense, tasks, messages float64
	for _, ts := range w.runs {
		steps := float64(ts.steps)
		part += nnz
		eval += (steps + 1) * evalNNZ
		switch ts.layer {
		case "core":
			sgd += steps * nnz
			supersteps += steps
			tasks += steps * k
			messages += steps * (2*k*(k-1) + 2*k)
		case "lbfgs":
			if overlap {
				stream += steps * nnz
			} else {
				grad += steps * nnz
			}
			supersteps += steps
			tasks += steps * k
			messages += steps * (2*k*(k-1) + 2*k)
		case "mllib":
			gradRows += steps * ts.batch * nnz
			treeagg += steps
			tasks += steps * k
			messages += steps * 3 * k
		case "petuum":
			// Unregularized: a local SGD pass over the batch, then the delta
			// as a copy of the model and one subtraction.
			sgd += steps * ts.batch * nnz
			dense += 2 * k * steps * dim
			pulls += k * (steps + 1)
			pushes += k * steps
		case "angel":
			// One epoch per step, a dense model update per mini batch.
			grad += steps * nnz
			dense += k * steps * math.Ceil(1/ts.batch) * dim
			pulls += k * (steps + 1)
			pushes += k * steps
		}
	}
	messages += pulls*2*k + pushes*k

	rows := []budgetRow{
		{Layer: "data.sgd", UnitCost: cost("data.sgd_ns_per_nnz"), Per: "nnz", Count: sgd},
		{Layer: "data.grad", UnitCost: cost("data.grad_ns_per_nnz"), Per: "nnz", Count: grad},
		{Layer: "data.gradrows", UnitCost: cost("data.gradrows_ns_per_nnz"), Per: "nnz", Count: gradRows},
		{Layer: "data.gradstream", UnitCost: cost("data.gradstream_ns_per_nnz"), Per: "nnz", Count: stream},
		{Layer: "data.partition", UnitCost: cost("data.partition_ns_per_nnz"), Per: "nnz", Count: part},
		{Layer: "train.eval", UnitCost: cost("train.eval_ns_per_nnz"), Per: "nnz", Count: eval},
		{Layer: "vec dense sweeps", UnitCost: cost("vec.addscaled_ns_per_elem"), Per: "elem", Count: dense},
		{Layer: "allreduce+engine+simnet+des", UnitCost: cost("allreduce.ns_per_superstep"), Per: "superstep", Count: supersteps},
		{Layer: "engine.treeagg+simnet+des", UnitCost: cost("engine.treeagg_ns_per_step"), Per: "step", Count: treeagg},
		{Layer: "ps pull+simnet+des", UnitCost: cost("ps.ns_per_pull"), Per: "pull", Count: pulls},
		{Layer: "ps push+simnet+des", UnitCost: cost("ps.ns_per_push"), Per: "push", Count: pushes},
		{Layer: "par", UnitCost: cost("par.ns_per_go"), Per: "closure", Count: tasks},
	}
	if w.causal {
		perEvent := cost("obs.ns_per_event") + cost("obs.attribute_ns_per_event") + cost("obs.write_ns_per_event")
		perNode := cost("causal.analyze_ns_per_node") + cost("causal.critpath_ns_per_node") + cost("causal.retime_ns_per_node")
		rows = append(rows,
			budgetRow{Layer: "obs record+attribute+write", UnitCost: perEvent, Per: "event", Count: events},
			budgetRow{Layer: "causal analyze+critpath+retime", UnitCost: perNode, Per: "node", Count: nodes},
		)
	}
	rows = append(rows,
		budgetRow{Layer: "simnet+des under the rows above", UnitCost: cost("simnet.ns_per_message"), Per: "message", Count: messages, Detail: true},
	)

	explained := 0.0
	for i := range rows {
		row := &rows[i]
		row.Seconds = row.UnitCost * row.Count / 1e9
		row.Share = row.Seconds / wall
		if !row.Detail {
			explained += row.Seconds
		}
	}
	return append(rows, budgetRow{Layer: "unexplained residual", Seconds: wall - explained, Share: (wall - explained) / wall})
}

// budgetText renders the budget table of a traced result.
func budgetText(res *result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "budget %s: wall_s %.4g s per repetition, untraced median\n", res.Workload, res.Metrics["runtime.wall_untraced_s"].Value)
	fmt.Fprintf(&b, "  %-34s %12s %-10s %12s %9s %7s\n", "layer", "unit cost", "per", "count", "seconds", "share")
	for _, row := range res.Budget {
		layer := row.Layer
		if row.Detail {
			layer = "(" + layer + ")"
		}
		if row.Per == "" {
			fmt.Fprintf(&b, "  %-34s %12s %-10s %12s %9.4f %6.1f%%\n", layer, "", "", "", row.Seconds, 100*row.Share)
			continue
		}
		fmt.Fprintf(&b, "  %-34s %9.4g ns %-10s %12.4g %9.4f %6.1f%%\n", layer, row.UnitCost, row.Per, row.Count, row.Seconds, 100*row.Share)
	}
	return b.String()
}
