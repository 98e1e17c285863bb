package costcharge

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"

	"mllibstar/internal/analysis"
)

// runCases are function bodies, one per statement kind that ends a run of
// straight-line statements or does not; a line marked "// dup" is the one
// duplicate-charge finding each case expects there. SendPhase is a charge
// by name, os.Exit a terminal call by name.
var runCases = []struct{ name, body string }{
	{"StraightLine", `
	SendPhase(1, 8)
	SendPhase(2, 8)
	n++
	SendPhase(1, 8) // dup
	SendPhase(1, 8) // dup`},
	{"IfElse", `
	SendPhase(1, 8)
	if c {
		SendPhase(1, 8)
		SendPhase(1, 8) // dup
	} else {
		SendPhase(1, 8)
	}
	SendPhase(1, 8)`},
	{"IfWithoutElse", `
	if c {
		SendPhase(1, 8)
	}
	SendPhase(1, 8)
	SendPhase(1, 8) // dup`},
	{"ForBreakContinue", `
	for i := 0; i < n; i++ {
		SendPhase(1, 8)
		if i == 3 {
			continue
		}
		SendPhase(1, 8)
		if i == 5 {
			SendPhase(2, 8)
			SendPhase(2, 8) // dup
			break
		}
	}
	SendPhase(1, 8)`},
	{"LabeledBreakContinue", `
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			SendPhase(1, 8)
			if j == 1 {
				continue outer
			}
			SendPhase(1, 8)
		}
		SendPhase(1, 8)
		SendPhase(1, 8) // dup
		if i == 2 {
			break outer
		}
	}`},
	{"Range", `
	SendPhase(1, 8)
	for range n {
		SendPhase(1, 8)
		SendPhase(1, 8) // dup
	}
	SendPhase(1, 8)`},
	{"SwitchFallthrough", `
	switch n {
	case 0:
		SendPhase(1, 8)
		fallthrough
	case 1:
		SendPhase(1, 8)
		SendPhase(1, 8) // dup
	default:
		SendPhase(1, 8)
	}`},
	{"SwitchNoDefault", `
	SendPhase(1, 8)
	switch n {
	case 0:
		SendPhase(1, 8)
	}
	SendPhase(1, 8)`},
	{"Select", `
	select {
	case <-ch:
		SendPhase(1, 8)
		SendPhase(1, 8) // dup
	case ch <- 1:
		SendPhase(1, 8)
	}
	SendPhase(1, 8)`},
	{"Defer", `
	SendPhase(1, 8)
	defer SendPhase(1, 8)
	SendPhase(1, 8) // dup`},
	{"ReturnUnreachable", `
	SendPhase(1, 8)
	return
	SendPhase(1, 8)
	SendPhase(1, 8) // dup`},
	{"GotoBackward", `
	SendPhase(1, 8)
again:
	SendPhase(1, 8)
	SendPhase(1, 8) // dup
	if n--; n > 0 {
		goto again
	}`},
	{"GotoForward", `
	SendPhase(1, 8)
	goto done
	SendPhase(1, 8)
done:
	SendPhase(1, 8)
	SendPhase(1, 8) // dup`},
	{"PanicTerminal", `
	SendPhase(1, 8)
	panic("boom")
	SendPhase(1, 8)
	SendPhase(1, 8) // dup`},
	{"OSExitTerminal", `
	SendPhase(1, 8)
	os.Exit(1)
	SendPhase(1, 8)
	SendPhase(1, 8) // dup`},
	{"NestedLiteral", `
	SendPhase(1, 8)
	fn := func() {
		SendPhase(1, 8)
		SendPhase(1, 8) // dup
	}
	fn()
	SendPhase(1, 8) // dup`},
}

// TestChargeRuns holds the duplicate-charge scan's runs to the basic blocks
// of each case: what one control-flow block holds is one run.
func TestChargeRuns(t *testing.T) {
	for _, c := range runCases {
		t.Run(c.name, func(t *testing.T) {
			src := "package p\n\nfunc SendPhase(dst int, bytes float64)\n\nvar os struct{ Exit func(int) }\n\n" +
				"func f(c bool, n int, ch chan int) {" + c.body + "\n}\n"
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "p.go", src, 0)
			if err != nil {
				t.Fatal(err)
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
				t.Fatal(err)
			}
			var got, want []int
			pass := &analysis.Pass{TypesInfo: info, Report: func(d analysis.Diagnostic) {
				got = append(got, fset.Position(d.Pos).Line)
			}}
			reportDuplicateCharges(pass, []*ast.File{f})
			for i, line := range strings.Split(src, "\n") {
				if strings.HasSuffix(line, "// dup") {
					want = append(want, i+1)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("duplicate charges on lines %v, want %v\n%s", got, want, src)
			}
		})
	}
}
