package causal

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/obs"
)

// This file holds the structural what-if transforms: running unchunked
// (C = 1) AllReduce collectives at C > 1, with or without gradient
// production streamed into the chunks (-pipeline, -overlap), and
// re-sharding the serving tier. The collective transform does not model the
// schedule itself: it lowers allreduce.Plan, the steps the simulator
// executes, into re-timer nodes, so the chunk ranges, enqueue orders and
// gating are the rerun's by construction. The shard transform rebuilds its
// subgraph by hand. TestWhatIfChunkSweep, TestWhatIfOverlapSweep and
// TestWhatIfShardSweep check the predictions against actual reruns.

// specFor resolves a host's machine spec; synthesized hosts ("host~2") fall
// back to the host they were split from.
func (r *retimer) specFor(host string) (Spec, error) {
	if i := strings.IndexByte(host, '~'); i >= 0 {
		host = host[:i]
	}
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
// Shard transform: re-shard the serving tier.

const shardNotePrefix = "serve.shard"

// triplet is one shard interaction: a fan-out send, its recv at the shard,
// the shard's work span, the shard's reply send, and the reply's recv back
// at the sender.
type triplet struct {
	send, recv, span, rep, repRecv int
	shard                          int
}

func shardIndex(note string) (int, bool) {
	if !strings.HasPrefix(note, shardNotePrefix) {
		return 0, false
	}
	i, err := strconv.Atoi(note[len(shardNotePrefix):])
	return i, err == nil
}

// serveShardCount returns the number of shard hosts the trace talks to.
func serveShardCount(g *Graph) int {
	seen := map[int]bool{}
	for _, n := range g.Nodes {
		if i, ok := shardIndex(n.Note); ok && n.Kind == KindRecv {
			seen[i] = true
		}
	}
	return len(seen)
}

// shardTransform re-shards the serving tier to s shards: merging (s below
// the recorded count) rebuilds each fan-out as fewer, larger shard
// interactions with the work serialized on the surviving hosts — near-exact,
// since every nonzero is owned by exactly one shard either way; splitting
// (s above) divides each interaction across synthesized hosts, a heuristic
// that assumes the nonzeros split evenly.
func shardTransform(r *retimer, s int) error {
	g := r.g.src
	hostOf := map[int]string{}
	for _, n := range g.Nodes {
		if i, ok := shardIndex(n.Note); ok && n.Kind == KindRecv {
			hostOf[i] = n.Host
		}
	}
	k := len(hostOf)
	if k == 0 {
		return fmt.Errorf("no serving-tier traffic in this trace")
	}
	for i := 0; i < k; i++ {
		if hostOf[i] == "" {
			return fmt.Errorf("shard indices not contiguous (missing %d)", i)
		}
	}
	if s == k {
		return nil
	}
	pos := map[int]int{} // node id -> index within its proc chain
	for _, proc := range g.ProcOrder {
		for i, id := range g.Procs[proc] {
			pos[id] = i
		}
	}
	chase := func(sid int) (triplet, error) {
		t := triplet{send: sid}
		t.shard, _ = shardIndex(g.Nodes[sid].Note)
		rid, ok := r.g.recvOfMID[g.Nodes[sid].MID]
		if !ok {
			return t, fmt.Errorf("shard send without a recv")
		}
		t.recv = rid
		chain := g.Procs[g.Nodes[rid].Proc]
		p := pos[rid]
		if p+2 >= len(chain) {
			return t, fmt.Errorf("truncated shard interaction")
		}
		t.span, t.rep = chain[p+1], chain[p+2]
		if g.Nodes[t.span].Kind != KindSpan || g.Nodes[t.rep].Kind != KindSend {
			return t, fmt.Errorf("unrecognized shard interaction shape")
		}
		t.repRecv, ok = r.g.recvOfMID[g.Nodes[t.rep].MID]
		if !ok {
			return t, fmt.Errorf("shard reply without a recv")
		}
		return t, nil
	}
	var groups [][]triplet
	for _, proc := range g.ProcOrder {
		ids := g.Procs[proc]
		for i := 0; i < len(ids); {
			n := g.Nodes[ids[i]]
			if _, ok := shardIndex(n.Note); !ok || n.Kind != KindSend {
				i++
				continue
			}
			var grp []triplet
			for i < len(ids) {
				m := g.Nodes[ids[i]]
				if _, ok := shardIndex(m.Note); !ok || m.Kind != KindSend {
					break
				}
				t, err := chase(ids[i])
				if err != nil {
					return err
				}
				grp = append(grp, t)
				i++
			}
			groups = append(groups, grp)
		}
	}
	chains := map[string][]chainRec{}
	const header = 16.0 // serve headerBytes: one per message, so merging n messages saves 16·(n−1)
	if s < k {
		mergedIdx := func(i int) int { return i * s / k }
		mergedHost := make([]string, s)
		for i := k - 1; i >= 0; i-- {
			mergedHost[mergedIdx(i)] = hostOf[i]
		}
		for _, grp := range groups {
			buckets := map[int][]triplet{}
			var order []int
			for _, t := range grp {
				m := mergedIdx(t.shard)
				if _, ok := buckets[m]; !ok {
					order = append(order, m)
				}
				buckets[m] = append(buckets[m], t)
			}
			sort.Ints(order)
			for _, m := range order {
				if err := r.mergeBucket(buckets[m], mergedHost[m], header, chains); err != nil {
					return err
				}
			}
		}
	} else {
		if s%k != 0 {
			return fmt.Errorf("shard split wants a multiple of the recorded %d shards, got %d", k, s)
		}
		f := s / k
		for _, grp := range groups {
			for _, t := range grp {
				if err := r.splitTriplet(t, f, header, chains); err != nil {
					return err
				}
			}
		}
	}
	for host, recs := range chains { //mlstar:nolint determinism -- each host's chain is independent; iteration order does not affect the result
		_ = host
		sort.Slice(recs, func(a, b int) bool {
			//mlstar:nolint floateq -- exact compare intentional: equal keys fall through to the id tie-break
			if recs[a].keyT != recs[b].keyT {
				return recs[a].keyT < recs[b].keyT
			}
			return recs[a].keyID < recs[b].keyID
		})
		for i := 1; i < len(recs); i++ {
			rn := r.nodes[recs[i].span]
			rn.preds = append(rn.preds, redge{from: recs[i-1].last})
		}
	}
	return nil
}

// mergeBucket folds n shard interactions of one fan-out into a single
// interaction on the surviving host.
func (r *retimer) mergeBucket(ts []triplet, host string, header float64, chains map[string][]chainRec) error {
	g := r.g.src
	n := float64(len(ts))
	sendBytes, repBytes, spanDur := 0.0, 0.0, 0.0
	mergedSpec, err := r.specFor(host)
	if err != nil {
		return err
	}
	for _, t := range ts {
		sendBytes += g.Nodes[t.send].Bytes
		repBytes += g.Nodes[t.rep].Bytes
		d := g.Nodes[t.span].Dur
		if sp, err := r.specFor(hostOfNode(g, t.span)); err == nil && sp.Rate > 0 && mergedSpec.Rate > 0 {
			d *= sp.Rate / mergedSpec.Rate
		}
		spanDur += d
	}
	sendBytes -= header * (n - 1)
	repBytes -= header * (n - 1)
	t0 := ts[0]
	srcHost := g.Nodes[t0.send].Host
	dstHost := g.Nodes[t0.repRecv].Host
	sDur, err := r.sendDur(srcHost, sendBytes)
	if err != nil {
		return err
	}
	anchor := g.Nodes[t0.send]
	send := r.add(&rnode{
		kind: KindSend, host: srcHost, res: srcHost + "/out", dur: sDur,
		preds: append([]redge(nil), r.nodes[t0.send].preds...),
		keyT:  anchor.Start, keyID: anchor.ID, keySub: 1,
	})
	rDur, err := r.recvDur(host, sendBytes)
	if err != nil {
		return err
	}
	aR := g.Nodes[t0.recv]
	recv := r.add(&rnode{
		kind: KindRecv, host: host, res: host + "/in", dur: rDur,
		preds: []redge{{from: send, lag: g.Latency}},
		keyT:  aR.Start, keyID: aR.ID, keySub: 1,
	})
	aS := g.Nodes[t0.span]
	span := r.add(&rnode{
		kind: KindSpan, host: host, dur: spanDur,
		preds: []redge{{from: recv}},
		keyT:  aS.Start, keyID: aS.ID, keySub: 1,
	})
	pDur, err := r.sendDur(host, repBytes)
	if err != nil {
		return err
	}
	aP := g.Nodes[t0.rep]
	rep := r.add(&rnode{
		kind: KindSend, host: host, res: host + "/out", dur: pDur,
		preds: []redge{{from: span}},
		keyT:  aP.Start, keyID: aP.ID, keySub: 1,
	})
	qDur, err := r.recvDur(dstHost, repBytes)
	if err != nil {
		return err
	}
	aQ := g.Nodes[t0.repRecv]
	repRecv := r.add(&rnode{
		kind: KindRecv, host: dstHost, res: dstHost + "/in", dur: qDur,
		preds: []redge{{from: rep, lag: g.Latency}},
		keyT:  aQ.Start, keyID: aQ.ID, keySub: 1,
	})
	for _, t := range ts {
		r.drop(t.send, send)
		r.drop(t.recv, recv)
		r.drop(t.span, span)
		r.drop(t.rep, rep)
		r.drop(t.repRecv, repRecv)
	}
	chains[host] = append(chains[host], chainRec{keyT: aS.Start, keyID: aS.ID, span: span, last: rep})
	return nil
}

// splitTriplet divides one shard interaction across f sub-shards, the
// synthesized ones named host~1..host~f−1 and inheriting the host's spec.
func (r *retimer) splitTriplet(t triplet, f int, header float64, chains map[string][]chainRec) error {
	g := r.g.src
	srcHost := g.Nodes[t.send].Host
	baseHost := g.Nodes[t.recv].Host
	dstHost := g.Nodes[t.repRecv].Host
	sendBytes := (g.Nodes[t.send].Bytes-header)/float64(f) + header
	repBytes := (g.Nodes[t.rep].Bytes-header)/float64(f) + header
	spanDur := g.Nodes[t.span].Dur / float64(f)
	var sends, recvs, spans, reps, repRecvs []int
	prevSend := -1
	for i := 0; i < f; i++ {
		sub := baseHost
		if i > 0 {
			sub = baseHost + "~" + strconv.Itoa(i)
		}
		sDur, err := r.sendDur(srcHost, sendBytes)
		if err != nil {
			return err
		}
		var sPreds []redge
		if prevSend < 0 {
			sPreds = append([]redge(nil), r.nodes[t.send].preds...)
		} else {
			sPreds = []redge{{from: prevSend}}
		}
		a := g.Nodes[t.send]
		send := r.add(&rnode{
			kind: KindSend, host: srcHost, res: srcHost + "/out", dur: sDur,
			preds: sPreds, keyT: a.Start, keyID: a.ID, keySub: i + 1,
		})
		prevSend = send
		rDur, err := r.recvDur(sub, sendBytes)
		if err != nil {
			return err
		}
		aR := g.Nodes[t.recv]
		recv := r.add(&rnode{
			kind: KindRecv, host: sub, res: sub + "/in", dur: rDur,
			preds: []redge{{from: send, lag: g.Latency}},
			keyT:  aR.Start, keyID: aR.ID, keySub: i + 1,
		})
		aS := g.Nodes[t.span]
		span := r.add(&rnode{
			kind: KindSpan, host: sub, dur: spanDur,
			preds: []redge{{from: recv}},
			keyT:  aS.Start, keyID: aS.ID, keySub: i + 1,
		})
		pDur, err := r.sendDur(sub, repBytes)
		if err != nil {
			return err
		}
		aP := g.Nodes[t.rep]
		rep := r.add(&rnode{
			kind: KindSend, host: sub, res: sub + "/out", dur: pDur,
			preds: []redge{{from: span}},
			keyT:  aP.Start, keyID: aP.ID, keySub: i + 1,
		})
		qDur, err := r.recvDur(dstHost, repBytes)
		if err != nil {
			return err
		}
		aQ := g.Nodes[t.repRecv]
		repRecv := r.add(&rnode{
			kind: KindRecv, host: dstHost, res: dstHost + "/in", dur: qDur,
			preds: []redge{{from: rep, lag: g.Latency}},
			keyT:  aQ.Start, keyID: aQ.ID, keySub: i + 1,
		})
		sends, recvs, spans = append(sends, send), append(recvs, recv), append(spans, span)
		reps, repRecvs = append(reps, rep), append(repRecvs, repRecv)
		chains[sub] = append(chains[sub], chainRec{keyT: aS.Start, keyID: aS.ID, span: span, last: rep})
	}
	r.drop(t.send, sends...)
	r.drop(t.recv, recvs...)
	r.drop(t.span, spans...)
	r.drop(t.rep, reps...)
	r.drop(t.repRecv, repRecvs...)
	return nil
}

func hostOfNode(g *Graph, id int) string { return g.Nodes[id].Host }

// chainRec orders a surviving shard host's synthesized work spans so
// consecutive interactions serialize the way one shard process would: each
// span is additionally gated by the previous interaction's reply send.
type chainRec struct {
	keyT       float64
	keyID      int
	span, last int
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
// present, and the shard re-counts when the trace has a serving tier.
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
	if k := serveShardCount(g); k > 0 {
		scs = append(scs, Scenario{Name: fmt.Sprintf("shards=%d", 2*k), Shards: 2 * k})
		if k > 1 {
			scs = append(scs, Scenario{Name: "shards=1", Shards: 1})
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
