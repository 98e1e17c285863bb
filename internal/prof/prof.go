// Package prof wires the standard Go profiling endpoints and the engine
// switches into the repository's CLIs: -sparse (SparCML-style sparse
// model-delta exchange), -pipeline/-chunks (chunked collectives overlapping
// compute with communication), -overlap (feature-major gradient production
// feeding the pipelined collective), -obs/-obs-http (the structured telemetry
// layer), -cpuprofile, -memprofile, and -trace. -sparse and -pipeline keep
// every training numeric and byte count bit-identical, but shrink simulated
// time (that is their point), so compare simulated timings only within one
// -sparse/-pipeline setting. -obs observes without charging: enabling it
// changes no numerics, bytes, or virtual times, only records them. -causal
// enriches the recorded log with process identities, message ids, and
// barrier groups so mlstar-obs can rebuild the happens-before graph
// (-critpath, -whatif); the enrichment is observe-only too.
//
// The local compute has no switch: trainers always run the slab kernels
// (internal/data), and the offload pool (internal/par) turns itself on when
// GOMAXPROCS > 1.
package prof

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"

	"mllibstar/internal/allreduce"
	"mllibstar/internal/obs"
	"mllibstar/internal/obs/obshttp"
	"mllibstar/internal/sparse"
)

// Config holds the parsed flag values. Obtain one with Register, then call
// Start after flag.Parse.
type Config struct {
	sparse     onOff
	pipeline   onOff
	overlap    onOff
	chunks     *int
	cpu        *string
	mem        *string
	trace      *string
	causal     onOff
	obsOut     *string
	obsHTTP    *string
	metricsOut *string
}

// onOff is a boolean flag that also accepts the spellings on/off.
type onOff bool

func (v *onOff) String() string {
	if *v {
		return "on"
	}
	return "off"
}

func (v *onOff) Set(s string) error {
	switch s {
	case "on":
		*v = true
	case "off":
		*v = false
	default:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return fmt.Errorf("want on, off, true, or false")
		}
		*v = onOff(b)
	}
	return nil
}

func (v *onOff) IsBoolFlag() bool { return true }

// Register declares the flags on fs (normally flag.CommandLine).
func Register(fs *flag.FlagSet) *Config {
	c := &Config{}
	fs.Var(&c.sparse, "sparse", "delta-encode model exchange when the nonzero coding is smaller: on or off (bit-identical numerics; changes simulated bytes and time)")
	fs.Var(&c.pipeline, "pipeline", "pipeline the AllReduce supersteps: split the model into chunks and overlap chunk transfer with folding (bit-identical numerics and bytes; changes simulated time)")
	fs.Var(&c.overlap, "overlap", "produce gradient blocks feature-major inside the pipelined collective, so chunks ship while later blocks are still computing: on or off (implies -pipeline; bit-identical numerics and bytes; changes simulated time)")
	c.chunks = fs.Int("chunks", 0, "chunk count for -pipeline/-overlap (0 = default "+strconv.Itoa(allreduce.DefaultChunks)+")")
	c.cpu = fs.String("cpuprofile", "", "write a CPU profile to this file")
	c.mem = fs.String("memprofile", "", "write a heap profile to this file on exit")
	c.trace = fs.String("trace", "", "write a runtime execution trace to this file")
	c.obsOut = fs.String("obs", "", "record the structured superstep event log and write it to this file as JSONL on exit (replay with mlstar-obs)")
	fs.Var(&c.causal, "causal", "enrich the recorded event log with causal trace fields (process identity, message ids, barrier groups) for mlstar-obs -critpath/-whatif: on or off (observe-only; results stay bit-identical)")
	c.obsHTTP = fs.String("obs-http", "", "serve live telemetry (/metrics, /events, dashboard) on this address, e.g. :8080; implies event recording")
	c.metricsOut = fs.String("metrics-out", "", "write the final metrics registry as canonical JSON to this file on exit; implies event recording (deterministic runs produce byte-identical files; internal/obs/testdata/metrics.golden pins the registry they render)")
	return c
}

// Start applies the engine switches and begins any requested profiling. The
// returned stop function flushes profiles and must run before the process
// exits (normally via defer in main).
func (c *Config) Start() (stop func(), err error) {
	// -overlap implies the chunked schedule: without chunk messages there is
	// nothing to hide block production behind.
	chunked := bool(c.pipeline) || bool(c.overlap)
	if *c.chunks != 0 {
		if !chunked {
			return nil, fmt.Errorf("prof: -chunks %d needs -pipeline or -overlap (nothing is chunked without one of them)", *c.chunks)
		}
		// Fail fast on nonsense chunk counts; the dim-aware bound is checked
		// again by the CLIs once the model size is known.
		if err := allreduce.ValidateChunks(*c.chunks, 0, 0); err != nil {
			return nil, err
		}
	}
	chunks := 1 // unchunked
	if chunked {
		chunks = cmp.Or(*c.chunks, allreduce.DefaultChunks)
	}
	sparse.Configure(bool(c.sparse))
	allreduce.Configure(chunks)
	allreduce.ConfigureOverlap(bool(c.overlap))

	var cpuFile, traceFile *os.File
	if *c.cpu != "" {
		cpuFile, err = os.Create(*c.cpu)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			_ = cpuFile.Close()
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	if *c.trace != "" {
		traceFile, err = os.Create(*c.trace)
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				_ = cpuFile.Close()
			}
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := rtrace.Start(traceFile); err != nil {
			_ = traceFile.Close()
			if cpuFile != nil {
				pprof.StopCPUProfile()
				_ = cpuFile.Close()
			}
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	// Telemetry last: nothing after it can fail, so the server and sink
	// never leak on an error return. Recording observes the run without
	// charging it — results stay bit-identical with -obs on or off.
	var sink *obs.Sink
	var stopHTTP func()
	if *c.obsOut != "" || *c.obsHTTP != "" || *c.metricsOut != "" {
		if c.causal {
			sink = obs.EnableCausal()
		} else {
			sink = obs.Enable()
		}
	}
	if *c.obsHTTP != "" {
		addr, stopFn, serveErr := obshttp.Serve(*c.obsHTTP, sink)
		if serveErr != nil {
			if traceFile != nil {
				rtrace.Stop()
				_ = traceFile.Close()
			}
			if cpuFile != nil {
				pprof.StopCPUProfile()
				_ = cpuFile.Close()
			}
			return nil, fmt.Errorf("prof: %w", serveErr)
		}
		stopHTTP = stopFn
		fmt.Fprintf(os.Stderr, "prof: telemetry dashboard on http://%s/\n", addr)
	}

	return func() {
		if *c.obsOut != "" && sink != nil {
			f, err := os.Create(*c.obsOut)
			if err == nil {
				err = writeAndClose(f, *c.obsOut, sink.WriteJSONL)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
			}
		}
		if *c.metricsOut != "" && sink != nil {
			// MarshalJSON snapshots in canonical family/series order, so a
			// deterministic run writes a byte-stable file.
			blob, err := sink.Registry().MarshalJSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
			} else if err := os.WriteFile(*c.metricsOut, append(blob, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
			}
		}
		if stopHTTP != nil {
			stopHTTP()
		}
		if traceFile != nil {
			rtrace.Stop()
			_ = traceFile.Close()
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			_ = cpuFile.Close()
		}
		if *c.mem != "" {
			f, err := os.Create(*c.mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := writeAndClose(f, *c.mem, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
			}
		}
	}, nil
}

// writeAndClose runs write on f and closes it. A write error wins; after a
// successful write the Close error is the one that says whether the bytes
// reached the file (a full disk or an exceeded quota can surface only
// there), so it is reported, naming the file.
func writeAndClose(f io.WriteCloser, name string, write func(io.Writer) error) error {
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", name, err)
	}
	return nil
}
