package allreduce

import (
	"fmt"
	"iter"
	"strconv"
	"strings"

	"mllibstar/internal/vec"
)

// Op is what one step of a plan does.
type Op uint8

// The four step kinds.
const (
	Produce Op = iota // finalize coordinates [Lo, Hi) of the local vector (an overlapped Producer's block)
	Send              // ship [Lo, Hi), chunk Chunk of a partition, to executor Peer
	Fold              // receive the k−1 copies of own chunk Chunk, fold them into [Lo, Hi)
	Gather            // receive and install the k−1 peers' AllGather chunk Chunk
)

// Round is one of the two shuffle rounds a step belongs to.
type Round uint8

// The two rounds, in order.
const (
	RS Round = iota // Reduce-Scatter
	AG              // AllGather
)

func (r Round) String() string { return [...]string{"rs", "ag"}[r] }

// Step is one step of one executor's plan. Peer is the destination of a
// Send and the partition owner of a Produce; Fold and Gather steps receive
// from every other executor and carry Peer = self. Lo and Hi are
// coordinates of the full vector; a Gather step leaves them zero, since
// peer j's piece is chunk Chunk of j's partition.
type Step struct {
	Op     Op
	Round  Round
	Chunk  int
	Peer   int
	Lo, Hi int
}

// EffectiveChunks is the chunk count a collective of dim coordinates over k
// executors runs at when c are configured: never more chunks than the
// smallest partition has coordinates, and 1 on a single executor.
func EffectiveChunks(c, dim, k int) int {
	if k <= 1 {
		return 1
	}
	return max(1, min(c, dim/k))
}

// Plan returns executor self's steps of the AllReduce of dim coordinates
// over k executors in the given number of chunks (clamped by
// EffectiveChunks). It is the one schedule: allReduce executes it, and
// internal/causal lowers it into re-timer nodes to predict the chunks=C and
// overlap what-ifs.
//
// The Reduce-Scatter visits peers in order (ascending when nil) and the
// AllGather fans out in ascending order; own partition is produced last, as
// it gates only the local fold. Overlap (a Producer streaming blocks, which
// needs C > 1) puts a Produce before each block's first use. Dense chunks
// ship chunk-major, every peer's chunk c before any peer's chunk c+1, and
// each AllGather chunk follows its fold. Sparse coding decides on whole
// partitions: overlapped, a peer's chunks ship once its partition is
// produced (partition-major), and the AllGather waits for the last fold.
func Plan(k, dim, chunks, self int, order []int, overlap, dense bool) iter.Seq[Step] {
	return func(yield func(Step) bool) { plan(k, dim, chunks, self, order, overlap, dense, yield) }
}

func plan(k, dim, chunks, self int, order []int, overlap, dense bool, yield func(Step) bool) {
	if k < 2 {
		return // a single executor already holds the result
	}
	C := EffectiveChunks(chunks, dim, k)
	overlap = overlap && C > 1
	live := true
	emit := func(op Op, rd Round, c, j int) {
		if !live {
			return
		}
		s := Step{Op: op, Round: rd, Chunk: c, Peer: j}
		if op != Gather {
			owner := j // a Produce's or a Reduce-Scatter Send's partition; self for a Fold
			if rd == AG {
				owner = self // an AllGather Send ships own partition
			}
			s.Lo, s.Hi = chunkRange(dim, k, C, owner, c)
		}
		live = yield(s)
	}
	peer := func(i int) int { // the i-th Reduce-Scatter peer
		if order != nil {
			return order[i]
		}
		if i < self {
			return i
		}
		return i + 1
	}
	if dense || !overlap {
		for c := 0; c < C; c++ {
			for i := 0; i < k-1; i++ {
				if overlap {
					emit(Produce, RS, c, peer(i))
				}
				emit(Send, RS, c, peer(i))
			}
		}
	} else {
		for i := 0; i < k-1; i++ {
			for c := 0; c < C; c++ {
				emit(Produce, RS, c, peer(i))
			}
			for c := 0; c < C; c++ {
				emit(Send, RS, c, peer(i))
			}
		}
	}
	for c := 0; overlap && c < C; c++ {
		emit(Produce, RS, c, self)
	}
	fanOut := func(c int) { // own chunk c to every peer
		for j := 0; j < k; j++ {
			if j != self {
				emit(Send, AG, c, j)
			}
		}
	}
	for c := 0; c < C; c++ {
		emit(Fold, RS, c, self)
		if dense {
			fanOut(c)
		}
	}
	for c := 0; !dense && c < C; c++ {
		fanOut(c)
	}
	for c := 0; c < C; c++ {
		emit(Gather, AG, c, self)
	}
}

// chunkRange returns the coordinates of chunk c of executor j's partition.
func chunkRange(dim, k, C, j, c int) (lo, hi int) {
	plo, phi := vec.PartitionRange(dim, k, j)
	clo, chi := vec.PartitionRange(phi-plo, C, c)
	return plo + clo, plo + chi
}

// xchTag names a round's chunk c: xch:<round>:<name> unchunked, else with a
// .c<c> chunk suffix, by which internal/causal tells the schedules apart.
func xchTag(rd Round, name string, C, c int) string {
	if C == 1 {
		return "xch:" + rd.String() + ":" + name
	}
	return fmt.Sprintf("xch:%s:%s.c%d", rd, name, c)
}

// Tag is a collective message tag, parsed.
type Tag struct {
	Round   Round
	Name    string // the collective call's name
	Chunked bool   // the tag has a chunk suffix: the call ran at C > 1
}

// ParseTag inverts xchTag; ok is false for every other message tag.
func ParseTag(tag string) (t Tag, ok bool) {
	rest, ok := strings.CutPrefix(tag, "xch:")
	if !ok || len(rest) < 3 || rest[2] != ':' {
		return t, false
	}
	switch rest[:2] {
	case "rs":
		t.Round = RS
	case "ag":
		t.Round = AG
	default:
		return t, false
	}
	t.Name = rest[3:]
	if i := strings.LastIndex(t.Name, ".c"); i >= 0 {
		if c, err := strconv.Atoi(t.Name[i+2:]); err == nil && c >= 0 {
			t.Name, t.Chunked = t.Name[:i], true
		}
	}
	return t, true
}
