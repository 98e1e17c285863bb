// Package determinism implements the lint check that keeps every figure in
// results/ bit-reproducible: simulated code must not consult global RNG
// state, wall-clock time, or Go's randomized map iteration order.
//
// The engine is a single-threaded discrete-event simulation, so the only
// sources of run-to-run variation are exactly these three; the analyzer
// turns the determinism contract (documented in internal/engine/README.md)
// into a machine-checked invariant:
//
//   - calls to package-level math/rand functions (rand.Float64, rand.Intn,
//     rand.Perm, ...) draw from the process-global, racy source and are
//     flagged; every random draw must come from an explicitly seeded
//     *rand.Rand threaded from configuration;
//   - direct rand.New/rand.NewSource construction is flagged outside
//     internal/detrand so stream derivation (how a config seed fans out to
//     per-worker, per-partition, per-step streams) stays in one audited
//     place;
//   - time.Now and friends are flagged: simulated code must use virtual
//     time (des.Proc.Now), never the wall clock;
//   - ranging over a map is flagged because iteration order varies per run:
//     iterate over sorted keys or a recorded insertion-order slice, or
//     suppress with //mlstar:nolint determinism when the loop is provably
//     order-insensitive (e.g. building another map without float
//     accumulation);
//   - raw `go` statements are flagged: concurrency in simulated code must be
//     expressed as simulation processes (des.Spawn, des.Fork — what the
//     pipelined AllReduce scheduler uses for its sender and fold/decode
//     stages) or handed to the deterministic compute pool (par.Go/par.Do),
//     because a bare goroutine runs in wall-clock order outside the virtual
//     clock. The des kernel's own Spawn implementation is the one audited
//     exception, suppressed in place.
package determinism

import (
	"go/ast"
	"go/types"

	"mllibstar/internal/analysis"
)

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid global rand state, wall-clock time, raw goroutines, and map-order dependence in simulated code",
	DefaultScope: []string{
		"mllibstar/internal/allreduce",
		"mllibstar/internal/angel",
		"mllibstar/internal/bench",
		"mllibstar/internal/causal",
		"mllibstar/internal/clusters",
		"mllibstar/internal/core",
		"mllibstar/internal/data",
		"mllibstar/internal/des",
		"mllibstar/internal/dfs",
		"mllibstar/internal/engine",
		"mllibstar/internal/feats",
		"mllibstar/internal/glm",
		"mllibstar/internal/lbfgs",
		"mllibstar/internal/mavg",
		"mllibstar/internal/metrics",
		"mllibstar/internal/mllib",
		"mllibstar/internal/obs",
		"mllibstar/internal/opt",
		"mllibstar/internal/petuum",
		"mllibstar/internal/ps",
		"mllibstar/internal/simnet",
		"mllibstar/internal/train",
	},
	Run: run,
}

// randConstructors may be called only from internal/detrand (which is kept
// out of the analyzer's scope): everything else must receive a *rand.Rand.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// randAllowed are package-level math/rand functions that are deterministic
// given their arguments: distributions over an explicitly passed source.
var randAllowed = map[string]bool{
	"NewZipf": true,
}

// wallClockFuncs are the time package entry points that leak the wall clock
// or real sleeping into simulated code.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
}

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.RangeStmt:
			checkRange(pass, n)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"raw goroutine in simulated code runs in wall-clock order outside the virtual clock; use a simulation process (des.Spawn/des.Fork) or the deterministic pool (par.Go/par.Do)")
		}
		return true
	})
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.FuncOf(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Float64) are exactly what we want
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		if randAllowed[fn.Name()] {
			return
		}
		if randConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"direct rand.%s: derive seeded streams through internal/detrand so stream derivation stays centralized", fn.Name())
			return
		}
		pass.Reportf(call.Pos(),
			"global rand.%s draws from process-global RNG state and breaks run reproducibility; use an explicitly seeded *rand.Rand threaded from config (internal/detrand)", fn.Name())
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(),
				"wall-clock time.%s in simulated code; use virtual time (des.Proc.Now) so results stay reproducible", fn.Name())
		}
	}
}

func checkRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	pass.Reportf(rng.Pos(),
		"map iteration order is nondeterministic; iterate over sorted keys or a recorded order slice")
}
