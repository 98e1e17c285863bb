package mllibstar

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mllibstar/internal/obs"
)

// TestPrivateTraceKeepsTheRun: a run with its own Config.Trace records into
// it everything the run emits — the evaluator's meta and eval events
// included — and nothing into the installed sink, for every system, with
// another sink installed and with none.
func TestPrivateTraceKeepsTheRun(t *testing.T) {
	ds := toyDataset()
	for _, installed := range []bool{true, false} {
		for _, sys := range Systems() {
			t.Run(fmt.Sprintf("installed=%v/%s", installed, sys), func(t *testing.T) {
				var other *obs.Sink
				if installed {
					other = obs.Enable()
					defer obs.Disable()
				}
				private := obs.NewSink()
				// Logistic loss: L-BFGS and SVRG need a differentiable one.
				res, err := Train(ds, Config{System: sys, Loss: "logistic", MaxSteps: 3, Eta: 0.1, Trace: private})
				if err != nil {
					t.Fatal(err)
				}
				count := map[obs.Phase]int{}
				for _, e := range private.Events() {
					count[e.Phase]++
				}
				if count[obs.PhaseMeta] != 2 || count[obs.PhaseEval] != res.Curve.Len() {
					t.Errorf("private log holds %d meta and %d eval events, want 2 and %d (one per curve point)",
						count[obs.PhaseMeta], count[obs.PhaseEval], res.Curve.Len())
				}
				if n := other.Len(); n != 0 {
					t.Errorf("the installed sink recorded %d events of a run with its own Trace", n)
				}
			})
		}
	}
}

// TestInternalReadsNoInstalledSink holds the telemetry wiring to its one
// rule: obs.Active, the process-wide sink, is read only where a process or
// an API call starts (the cmd mains, mllibstar.Train). Everything under
// internal/ receives the run's sink by value — simnet.Network.Sink, a
// trainer's evaluator, bench.RunConfig.Sink — so no non-test file there may
// name obs.Active.
func TestInternalReadsNoInstalledSink(t *testing.T) {
	const obsPath = "mllibstar/internal/obs"
	fset := token.NewFileSet()
	var found []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == obsPath {
				local = "obs"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Active" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					found = append(found, fset.Position(sel.Pos()).String())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) > 0 {
		t.Errorf("non-test code under internal/ reads the installed sink; pass the run's sink instead:\n\t%s",
			strings.Join(found, "\n\t"))
	}
}
