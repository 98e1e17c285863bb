package engine

import (
	"fmt"

	"mllibstar/internal/des"
)

// Block is one unit of shuffle data in flight from one executor to another
// during an Exchange. Bytes is the modeled wire size — what the virtual
// clock is charged — and need not be the in-memory size of Payload: the
// simulation deliberately separates the two, Go data structures being the
// mechanism and Bytes the model.
type Block struct {
	From    int
	To      int
	Bytes   float64
	Payload any
}

// Exchange is the engine's generic all-to-all shuffle round, the primitive
// the paper implements AllReduce on ("we use the shuffle operator in
// Spark"). It must be called from within the same stage on every executor:
// each executor sends exactly one block to every other executor (empty
// blocks still carry framing overhead, as Spark's empty shuffle partitions
// do) and returns the k−1 blocks destined to it, ordered by arrival.
//
// name must be unique per collective call; outgoing must contain exactly
// one entry per peer (self excluded), with To set to the peer's executor
// index.
func Exchange(p *des.Proc, ex *Executor, execs []string, self int, name string, outgoing []Block) []Block {
	k := len(execs)
	if self < 0 || self >= k {
		panic(fmt.Sprintf("engine: Exchange self %d out of %d", self, k))
	}
	if len(outgoing) != k-1 {
		panic(fmt.Sprintf("engine: Exchange wants %d outgoing blocks, got %d", k-1, len(outgoing)))
	}
	seen := make([]bool, k)
	tag := "xch:" + name
	for i := range outgoing {
		b := outgoing[i]
		if b.To < 0 || b.To >= k || b.To == self {
			panic(fmt.Sprintf("engine: Exchange block to %d from %d", b.To, self))
		}
		if seen[b.To] {
			panic(fmt.Sprintf("engine: Exchange duplicate destination %d", b.To))
		}
		seen[b.To] = true
		b.From = self
		ex.Send(p, execs[b.To], tag, b.Bytes, b)
	}
	in := make([]Block, 0, k-1)
	for len(in) < k-1 {
		msg := ex.Recv(p, tag)
		in = append(in, msg.Payload.(Block))
	}
	return in
}
