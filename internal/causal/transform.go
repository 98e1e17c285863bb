package causal

import (
	"fmt"
	"slices"
	"strings"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/obs"
)

// This file holds the structural what-if transforms: running unchunked
// (C = 1) AllReduce collectives at C > 1, with or without gradient
// production streamed into the chunks (-pipeline, -overlap). The transform
// does not model the schedule itself: it lowers allreduce.Plan, the steps
// the simulator executes, into re-timer nodes, so the chunk ranges, enqueue
// orders and gating are the rerun's by construction. TestWhatIfChunkSweep
// and TestWhatIfOverlapSweep check the predictions against actual reruns.

// specFor resolves a host's machine spec.
func (r *retimer) specFor(host string) (Spec, error) {
	sp, ok := r.g.src.Specs[host]
	if !ok || sp.SendBW <= 0 || sp.RecvBW <= 0 {
		return sp, fmt.Errorf("causal: no machine spec for %q (re-record the log under -causal)", host)
	}
	return sp, nil
}

func (r *retimer) sendDur(host string, bytes float64) (float64, error) {
	sp, err := r.specFor(host)
	if err != nil {
		return 0, err
	}
	return (bytes + r.g.src.Overhead) / sp.SendBW, nil
}

func (r *retimer) recvDur(host string, bytes float64) (float64, error) {
	sp, err := r.specFor(host)
	if err != nil {
		return 0, err
	}
	return (bytes + r.g.src.Overhead) / sp.RecvBW, nil
}

func (r *retimer) drop(id int, replacements ...int) {
	r.nodes[id].dropped = true
	r.redirect[id] = replacements
}

// ---------------------------------------------------------------------------
// Collective transform: a sequential AllReduce -> allreduce.Plan at C chunks.

// xchRun is one executor's slice of one sequential reduce-scatter/gather
// collective, as recorded in its process chain: k−1 sends and recvs per
// shuffle round, k−1 fold charges between them, k−1 update charges after.
// grad is the anonymous compute charge immediately preceding the first send
// on the same chain — the gradient pass that fed the collective — or −1;
// the overlap what-if streams it into the chunks.
type xchRun struct {
	name                                               string
	host                                               string
	grad                                               int
	rsSends, rsRecvs, folds, agSends, agRecvs, updates []int
}

// parseXchRun matches the sequential collective shape starting at position i
// of a process chain; ok is false when the shape does not match (the
// exchange is some other shuffle and stays untouched).
func parseXchRun(g *Graph, ids []int, i int) (run xchRun, next int, ok bool) {
	first := g.Nodes[ids[i]]
	t, _ := allreduce.ParseTag(first.Note)
	run.name, run.host, run.grad = t.Name, first.Host, -1
	if i > 0 {
		// Collective charges (folds, updates) carry the collective name as
		// their note; the gradient pass is an anonymous ChargeAsync, so an
		// un-noted span right before the first send can only be the compute
		// that produced the vector being reduced.
		if prev := g.Nodes[ids[i-1]]; prev.Kind == KindSpan && prev.Note == "" {
			run.grad = ids[i-1]
		}
	}
	// take consumes the run of kind's nodes of round rd: unchunked messages
	// tagged with the collective's name, or charges noted with it.
	take := func(kind NodeKind, rd allreduce.Round) []int {
		var out []int
		for ; i < len(ids); i++ {
			n := g.Nodes[ids[i]]
			t, ok := allreduce.ParseTag(n.Note)
			if n.Kind != kind || (kind == KindSpan && n.Note != run.name) ||
				(kind != KindSpan && (!ok || t != allreduce.Tag{Round: rd, Name: run.name})) {
				break
			}
			out = append(out, ids[i])
		}
		return out
	}
	run.rsSends = take(KindSend, allreduce.RS)
	run.rsRecvs = take(KindRecv, allreduce.RS)
	run.folds = take(KindSpan, allreduce.RS)
	run.agSends = take(KindSend, allreduce.AG)
	run.agRecvs = take(KindRecv, allreduce.AG)
	run.updates = take(KindSpan, allreduce.AG)
	a := len(run.rsSends)
	ok = a > 0 && len(run.rsRecvs) == a && len(run.folds) == a &&
		len(run.agSends) == a && len(run.agRecvs) == a && len(run.updates) == a
	return run, i, ok
}

// xchInstance is one collective instance across its k executors (runs in
// recorded proc order) with the total model width — the concatenation of the
// k allgather partitions.
type xchInstance struct {
	name string
	runs []xchRun
	dim  int
}

// collectCollectives gathers every sequential collective instance in the
// trace, preserving per-proc order so the q-th run of a name on every
// executor is the q-th instance of that collective.
func collectCollectives(r *retimer) ([]xchInstance, error) {
	g := r.g.src
	runsByName := map[string]map[string][]xchRun{}
	var nameOrder []string
	for _, proc := range g.ProcOrder {
		ids := g.Procs[proc]
		for i := 0; i < len(ids); {
			n := g.Nodes[ids[i]]
			t, ok := allreduce.ParseTag(n.Note)
			if n.Kind != KindSend || !ok || t.Round != allreduce.RS {
				i++
				continue
			}
			if t.Chunked {
				return nil, fmt.Errorf("collectives already pipelined (tag %q)", n.Note)
			}
			run, next, ok := parseXchRun(g, ids, i)
			if !ok {
				i++
				continue
			}
			for _, id := range slices.Concat(run.rsSends, run.rsRecvs, run.agSends, run.agRecvs) {
				if g.Nodes[id].Enc == obs.EncSparse {
					return nil, fmt.Errorf("sparse-encoded collective %q: chunk byte split is encoding-dependent", run.name)
				}
			}
			if runsByName[run.name] == nil {
				runsByName[run.name] = map[string][]xchRun{}
				nameOrder = append(nameOrder, run.name)
			}
			runsByName[run.name][proc] = append(runsByName[run.name][proc], run)
			i = next
		}
	}
	var out []xchInstance
	for _, name := range nameOrder {
		byProc := runsByName[name]
		var execs []string
		for _, proc := range g.ProcOrder {
			if _, ok := byProc[proc]; ok {
				execs = append(execs, proc)
			}
		}
		k := len(execs)
		instances := len(byProc[execs[0]])
		for _, proc := range execs {
			if len(byProc[proc]) != instances {
				return nil, fmt.Errorf("collective %q: executors disagree on instance count", name)
			}
		}
		for q := 0; q < instances; q++ {
			runs := make([]xchRun, k)
			dim := 0
			for e, proc := range execs {
				runs[e] = byProc[proc][q]
				if a := len(runs[e].rsSends); a != k-1 {
					return nil, fmt.Errorf("collective %q: %d sends for %d executors", name, a, k)
				}
				dim += int(g.Nodes[runs[e].agSends[0]].Bytes / 8)
			}
			out = append(out, xchInstance{name: name, runs: runs, dim: dim})
		}
	}
	return out, nil
}

// streamedPrefixes names the collectives whose vectors are produced block by
// block inside the collective when -overlap is on — the
// allreduce.AverageProduced call sites: LBFGS*'s lbg%d, SVRG's anchor
// gradient svrg-mu%d, and the distributed-GD superstep gd%d
// (internal/bench). A call site that adopts AverageProduced must register
// its name prefix here for the overlap what-if to stream it; unregistered
// collectives get the plain chunked plan, which is what their rerun runs.
var streamedPrefixes = []string{"lbg", "svrg-mu", "gd"}

func streamedCollective(name string) bool {
	for _, p := range streamedPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// collectiveTransform re-times the trace as if every sequential collective
// had run at C chunks (-pipeline) or, with overlap (-overlap), with the
// gradient of each registered AverageProduced call site streamed into the
// chunks. Each instance becomes the lowering of its allreduce.Plan; at an
// effective chunk count of 1 that plan is the recorded schedule.
func collectiveTransform(r *retimer, C int, overlap bool) error {
	insts, err := collectCollectives(r)
	if err != nil {
		return err
	}
	streamed := false
	for _, inst := range insts {
		stream := overlap && streamedCollective(inst.name)
		for _, run := range inst.runs {
			stream = stream && run.grad >= 0 // the gradient charge is visible
		}
		streamed = streamed || stream
		if allreduce.EffectiveChunks(C, inst.dim, len(inst.runs)) > 1 {
			if err := r.lowerPlan(inst, C, stream); err != nil {
				return err
			}
		}
	}
	if overlap && !streamed {
		return fmt.Errorf("no streamable gradient collectives in this trace (want an %v-prefixed collective fed by a visible gradient charge)", streamedPrefixes)
	}
	return nil
}

// lowerPlan replaces one recorded collective with every executor's
// allreduce.Plan at C chunks, dense as recorded: two chains per executor —
// its forked sender's sends, each also waiting for the task chain's tail,
// and its task's productions, folds and installs. Message durations come
// from the specs; the rest split the recorded charges by coordinate width
// (a streamed gradient half as GradStream's Prepare pass). Keys come from
// the replaced nodes and step positions; the walk runs in stepPhases.
func (r *retimer) lowerPlan(inst xchInstance, C int, stream bool) error {
	g, runs, dim := r.g.src, inst.runs, inst.dim
	k := len(runs)
	C = allreduce.EffectiveChunks(C, dim, k)
	execOf := map[int]int{} // recorded collective send -> its executor
	recvBW := make([]float64, k)
	for e, run := range runs {
		for _, id := range slices.Concat(run.rsSends, run.agSends) {
			execOf[id] = e
		}
		sp, err := r.specFor(run.host) // every host's spec: sendDur and recvDur cannot fail below
		if err != nil {
			return err
		}
		recvBW[e] = sp.RecvBW
	}
	sends := make([]int, 2*C*k*k) // (round, chunk, from, to) -> lowered send
	at := func(rd allreduce.Round, c, from, to int) *int { return &sends[((int(rd)*C+c)*k+from)*k+to] }
	agWidth := make([]int, C*k) // (chunk, owner) -> AllGather chunk width
	node := func(kind NodeKind, host, res string, dur float64, preds []redge, anchor *Node, sub int) int {
		return r.add(&rnode{kind: kind, host: host, res: res, dur: dur, preds: preds, keyT: anchor.Start, keyID: anchor.ID, keySub: sub})
	}
	type lane struct {
		order                           []int // Reduce-Scatter visit order; nil is ascending
		out, outSub, task, taskSub, own int   // chain tails (from the fork; streaming, the task's from Prepare), key positions, own width
	}
	lanes := make([]lane, k)
	for phase := 0; phase < 3; phase++ {
		for e, run := range runs {
			l := &lanes[e]
			if phase == 0 {
				fork := node(KindFork, run.host, "", 0, slices.Clone(r.nodes[run.rsSends[0]].preds), g.Nodes[run.rsSends[0]], 1)
				*l = lane{out: fork, outSub: 1, task: fork}
				if stream { // the fork moves up to the gradient pass
					r.nodes[fork].preds = slices.Clone(r.nodes[run.grad].preds)
					sp, _ := r.specFor(run.host)
					grad := g.Nodes[run.grad]
					l.order = allreduce.RouteOrder(inst.name, e, k, dim, sp.SendBW, recvBW)
					l.task, l.taskSub = node(KindSpan, run.host, "", grad.Dur/2, slices.Clone(r.nodes[run.grad].preds), grad, 1), 1
				}
			}
			for s := range allreduce.Plan(k, dim, C, e, l.order, stream, true) {
				if stepPhase(s) != phase {
					continue
				}
				preds := []redge{{from: l.task}}
				switch s.Op {
				case allreduce.Produce:
					grad := g.Nodes[run.grad]
					l.taskSub++
					l.task = node(KindSpan, run.host, "", grad.Dur/2*float64(s.Hi-s.Lo)/float64(dim), preds, grad, l.taskSub)
				case allreduce.Send:
					dur, _ := r.sendDur(run.host, 8*float64(s.Hi-s.Lo))
					l.outSub++
					l.out = node(KindSend, run.host, run.host+"/out", dur, append(preds, redge{from: l.out}), g.Nodes[run.rsSends[0]], l.outSub)
					*at(s.Round, s.Chunk, e, s.Peer) = l.out
					if s.Round == allreduce.AG {
						agWidth[s.Chunk*k+e] = s.Hi - s.Lo
					}
				default: // Fold, Gather: the chunk's k−1 recvs, then its charge
					recorded := [2][]int{run.rsRecvs, run.agRecvs}[s.Round]
					charges := [2][]int{run.folds, run.updates}[s.Round]
					dur := 0.0
					for q, rid := range recorded {
						sid, sent := g.SendByMID[g.Nodes[rid].MID]
						j, ok := execOf[sid]
						if !sent || !ok {
							return fmt.Errorf("collective %q: unmatched recv", inst.name)
						}
						w := s.Hi - s.Lo
						if s.Op == allreduce.Gather {
							w = agWidth[s.Chunk*k+j]
							dur += g.Nodes[charges[q]].Dur * float64(w) / float64(int(g.Nodes[rid].Bytes/8))
						} else {
							dur += g.Nodes[charges[q]].Dur
						}
						rdur, _ := r.recvDur(run.host, 8*float64(w))
						preds = append(preds, redge{from: node(KindRecv, run.host, run.host+"/in", rdur,
							[]redge{{from: *at(s.Round, s.Chunk, j, e), lag: g.Latency}}, g.Nodes[recorded[0]], s.Chunk*len(recorded)+q+1)})
					}
					if s.Op == allreduce.Fold {
						l.own += s.Hi - s.Lo
						dur = dur * float64(s.Hi-s.Lo) / float64(int(g.Nodes[run.agSends[0]].Bytes/8))
					}
					l.task = node(KindSpan, run.host, "", dur, preds, g.Nodes[charges[0]], s.Chunk+1)
				}
			}
		}
	}
	// Replaced nodes redirect to the last install, once the partitions agree.
	for e, run := range runs {
		if own := int(g.Nodes[run.agSends[0]].Bytes / 8); lanes[e].own != own {
			return fmt.Errorf("collective %q: executor %d recorded a %d-coordinate partition, its plan %d", inst.name, e, own, lanes[e].own)
		}
		ids := slices.Concat(run.rsSends, run.rsRecvs, run.folds, run.agSends, run.agRecvs, run.updates)
		if stream {
			ids = append(ids, run.grad)
		}
		for _, id := range ids {
			r.drop(id, lanes[e].task)
		}
	}
	return nil
}

// stepPhase is a plan step's lowering pass: its round, +1 if it receives.
func stepPhase(s allreduce.Step) int {
	if s.Op == allreduce.Fold || s.Op == allreduce.Gather {
		return int(s.Round) + 1
	}
	return int(s.Round)
}

// ---------------------------------------------------------------------------
// Standard scenario set.

// sequentialCollectives reports whether the trace carries un-chunked
// reduce-scatter traffic the collective transform can act on, and whether
// any of it belongs to a gradient-producing (AverageProduced) call site the
// overlap what-if can stream.
func sequentialCollectives(g *Graph) (seq, streamed bool) {
	for _, n := range g.Nodes {
		if t, ok := allreduce.ParseTag(n.Note); ok && n.Kind == KindSend && t.Round == allreduce.RS && !t.Chunked {
			seq, streamed = true, streamed || streamedCollective(t.Name)
		}
	}
	return seq, streamed
}

// StandardScenarios returns the named what-if set for a trace: the uniform
// scalings always, the chunk re-pipelining when sequential collectives are
// present.
func StandardScenarios(g *Graph) []Scenario {
	scs := []Scenario{
		{Name: "baseline"},
		{Name: "comm x0.5", CommScale: 0.5},
		{Name: "compute x0.5", ComputeScale: 0.5},
		{Name: "latency x0.5", LatencyScale: 0.5},
		{Name: "driver=0", DriverZero: true},
	}
	if seq, streamed := sequentialCollectives(g); seq {
		scs = append(scs, Scenario{Name: "chunks=8", Chunks: 8})
		if streamed {
			scs = append(scs, Scenario{Name: "overlap", Overlap: true})
		}
	}
	return scs
}

// WhatIf re-times every scenario against the graph.
func WhatIf(g *Graph, scs []Scenario) []Prediction {
	out := make([]Prediction, 0, len(scs))
	for _, sc := range scs {
		out = append(out, Retime(g, sc))
	}
	return out
}

// WhatIfText renders the scenario table. Deterministic for a given log.
func WhatIfText(g *Graph, preds []Prediction) string {
	var b strings.Builder
	fmt.Fprintf(&b, "what-if re-timing (recorded makespan %.6fs):\n", g.Makespan())
	fmt.Fprintf(&b, "  %-14s %16s %9s\n", "scenario", "predicted", "speedup")
	for _, p := range preds {
		if p.Err != "" {
			fmt.Fprintf(&b, "  %-14s %16s   (%s)\n", p.Scenario.Name, "n/a", p.Err)
			continue
		}
		fmt.Fprintf(&b, "  %-14s %15.6fs %8.2fx\n", p.Scenario.Name, p.Makespan, p.Speedup)
	}
	return b.String()
}
