// The deterministic closed-loop load generator: per-client detrand streams
// drive exponential-paced arrivals and Zipf-skewed sparse feature vectors,
// so a load run is a pure function of its config — byte-identical event
// logs and metrics across runs, the property the serve-demo golden relies on.
package serve

import (
	"fmt"
	"math/rand"
	"sort"

	"mllibstar/internal/data"
	"mllibstar/internal/des"
	"mllibstar/internal/detrand"
	"mllibstar/internal/simnet"
)

// LoadConfig describes a closed-loop load run.
type LoadConfig struct {
	PerClient int     // requests each client issues
	QPS       float64 // aggregate target arrival rate (requests per virtual second)
	NNZ       int     // nonzero features per request
	ZipfS     float64 // Zipf skew exponent (>1); hot features are low indices
	ZipfV     float64 // Zipf value offset (≥1)
	Seed      int64   // root of the per-client detrand streams
}

// Validate rejects inconsistent configurations.
func (lc LoadConfig) Validate() error {
	if lc.PerClient <= 0 || lc.QPS <= 0 || lc.NNZ <= 0 {
		return fmt.Errorf("serve: load perclient=%d qps=%g nnz=%d must be positive",
			lc.PerClient, lc.QPS, lc.NNZ)
	}
	if lc.ZipfS <= 1 || lc.ZipfV < 1 {
		return fmt.Errorf("serve: load zipf s=%g v=%g (need s>1, v≥1)", lc.ZipfS, lc.ZipfV)
	}
	return nil
}

// Result is one completed request as the client observed it: the features it
// sent, the epoch and margin it got back, and its latency span.
type Result struct {
	Client, Seq int
	Epoch       int64
	Margin      float64
	Sent, Done  float64
	Ind         []int32
	Val         []float64
}

// Load collects the results of a load run; read them after sim.Run.
type Load struct {
	perClient [][]Result
}

// Results returns all completed requests, client-major then sequence order —
// a deterministic flattening.
func (l *Load) Results() []Result {
	var out []Result
	for _, rs := range l.perClient {
		out = append(out, rs...)
	}
	return out
}

// SpawnLoad starts one closed-loop client process per client node. Client i
// draws from detrand.Worker(Seed, i): each request's features are generated
// deterministically regardless of network timing, so two deployments that
// differ only in shard count score the exact same request stream. Arrivals
// are exponential with aggregate rate QPS; a client that falls behind (reply
// slower than its next arrival) sends immediately on completion — closed
// loop, at most one outstanding request per client.
func (d *Deployment) SpawnLoad(sim *des.Sim, clients []string, lc LoadConfig) (*Load, error) {
	if err := lc.Validate(); err != nil {
		return nil, err
	}
	l := &Load{perClient: make([][]Result, len(clients))}
	for i, name := range clients {
		i, name := i, name
		sim.Spawn(fmt.Sprintf("serve:client%d", i), func(p *des.Proc) {
			l.perClient[i] = d.client(p, d.net.Node(name), i, len(clients), lc)
		})
	}
	return l, nil
}

// client is one closed-loop client process.
func (d *Deployment) client(p *des.Proc, node *simnet.Node, index, clients int, lc LoadConfig) []Result {
	rng := detrand.Worker(lc.Seed, index)
	zipf := rand.NewZipf(rng, lc.ZipfS, lc.ZipfV, uint64(d.cfg.Dim-1))
	gap := float64(clients) / lc.QPS // mean inter-arrival per client
	tag := fmt.Sprintf("serve.rep%d", index)
	results := make([]Result, 0, lc.PerClient)
	arrival := 0.0
	for seq := 0; seq < lc.PerClient; seq++ {
		arrival += rng.ExpFloat64() * gap
		p.WaitUntil(arrival)
		ind, val := genRequest(rng, zipf, lc.NNZ)
		sent := p.Now()
		node.Send(p, d.names.Router, ReqTag, headerBytes+12*float64(len(ind)),
			scoreReq{replyTo: node.Name(), replyTag: tag, seq: seq, ind: ind, val: val})
		rep := node.Recv(p, tag).Payload.(scoreRep)
		if rep.seq != seq {
			panic(fmt.Sprintf("serve: client %d got reply for seq %d, want %d", index, rep.seq, seq))
		}
		d.net.Sink().ServeRequest(node.Name(), sent, p.Now(), rep.epoch)
		results = append(results, Result{
			Client: index, Seq: seq, Epoch: rep.epoch, Margin: rep.margin,
			Sent: sent, Done: p.Now(), Ind: ind, Val: val,
		})
	}
	return results
}

// genRequest draws a sparse feature vector: NNZ distinct Zipf-skewed indices
// (ascending, as CSR rows require) with standard-normal values. Values are
// drawn per distinct index after the index set is fixed, so the value stream
// does not depend on how many duplicate draws the Zipf made.
func genRequest(rng *rand.Rand, zipf *rand.Zipf, nnz int) ([]int32, []float64) {
	seen := make(map[int32]bool, nnz)
	ind := make([]int32, 0, nnz)
	for len(ind) < nnz {
		j := int32(zipf.Uint64())
		if !seen[j] {
			seen[j] = true
			ind = append(ind, j)
		}
	}
	sort.Slice(ind, func(a, b int) bool { return ind[a] < ind[b] })
	val := make([]float64, nnz)
	for k := range val {
		val[k] = rng.NormFloat64()
	}
	return ind, val
}

// ExpectedMargin recomputes a result's canonical margin against the given
// per-epoch checkpoints — the oracle the serving tests and the smoke harness
// check every reply against, bit for bit.
func ExpectedMargin(epochs [][]float64, r Result) float64 {
	return data.Margin(epochs[r.Epoch], r.Ind, r.Val)
}

// LatencyQuantile returns the q-quantile (0 < q ≤ 1) of the results'
// client-observed latencies — the p99 of the serving experiments.
func LatencyQuantile(results []Result, q float64) float64 {
	if len(results) == 0 {
		return 0
	}
	lat := make([]float64, len(results))
	for i, r := range results {
		lat[i] = r.Done - r.Sent
	}
	sort.Float64s(lat)
	idx := int(q*float64(len(lat))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lat) {
		idx = len(lat) - 1
	}
	return lat[idx]
}
