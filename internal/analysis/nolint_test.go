package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parse builds a Suppressor over one in-memory file, returning the misuses.
func parse(t *testing.T, src string) (*Suppressor, []Misuse, string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuppressor("determinism", "floateq", "vecalias")
	mis := s.AddPackage(fset, []*ast.File{f})
	return s, mis, "p.go"
}

func TestSuppressedAttachment(t *testing.T) {
	src := `package p

var a = 1 //mlstar:nolint floateq -- exact sentinel by design
var b = 2 //mlstar:nolint floateq,determinism
//mlstar:nolint determinism -- order-insensitive: one write per key
var d = 4
var e = 5

func f() {
	x := call( //mlstar:nolint vecalias -- shared read-only buffer
		1,
		2,
	)
	_ = x
}

//mlstar:nolint determinism -- kernel-internal launch
func g() {
	y := 0
	_ = y
}

func h(m map[int]float64) (s float64) {
	for _, v := range m { //mlstar:nolint determinism -- the range only
		s += v
	}
	return s
}
`
	s, mis, file := parse(t, src)
	if len(mis) != 0 {
		t.Fatalf("unexpected misuses: %v", mis)
	}
	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{3, "floateq", true},       // trailing marker, named analyzer
		{3, "determinism", false},  // trailing marker names a different analyzer
		{4, "floateq", true},       // comma-separated list, first name
		{4, "determinism", true},   // comma-separated list, second name
		{4, "vecalias", false},     // not in the list
		{6, "determinism", true},   // marker-only line covers the statement below
		{6, "floateq", false},      // ...for the named analyzer only
		{7, "determinism", false},  // the next statement is not covered
		{10, "vecalias", true},     // trailing marker on a multi-line statement...
		{12, "vecalias", true},     // ...covers the whole statement
		{12, "floateq", false},     // ...but only the named analyzer
		{20, "determinism", true},  // declaration-attached directive covers the body
		{24, "determinism", true},  // a directive on a range covers its header...
		{25, "determinism", false}, // ...not the statements of its body
		{100, "floateq", false},    // out-of-range line
	}
	for _, c := range cases {
		if got := s.Suppressed(file, c.line, c.analyzer); got != c.want {
			t.Errorf("Suppressed(line %d, %q) = %v, want %v", c.line, c.analyzer, got, c.want)
		}
	}
	if s.Suppressed("missing.go", 1, "floateq") {
		t.Error("unknown file suppressed a finding")
	}
}

func TestNolintMisuses(t *testing.T) {
	src := `package p

var a = 1 //mlstar:nolint

//mlstar:nolint floateq -- floating in space, nothing on the next line

var b = 2

var c = 3 //mlstar:nolint detflow -- an analyzer that is not in the suite
`
	_, mis, _ := parse(t, src)
	if len(mis) != 3 {
		t.Fatalf("got %d misuses, want 3: %v", len(mis), mis)
	}
	if !strings.Contains(mis[0].Message, "bare nolint") {
		t.Errorf("misuse[0] = %q, want bare-directive message", mis[0].Message)
	}
	if !strings.Contains(mis[1].Message, "unattached nolint") {
		t.Errorf("misuse[1] = %q, want unattached-directive message", mis[1].Message)
	}
	if !strings.Contains(mis[2].Message, "names detflow, which is no analyzer of the suite") {
		t.Errorf("misuse[2] = %q, want unknown-analyzer message", mis[2].Message)
	}
	// No malformed directive suppresses anything.
	s, _, file := parse(t, src)
	if s.Suppressed(file, 3, "floateq") || s.Suppressed(file, 7, "floateq") || s.Suppressed(file, 9, "detflow") {
		t.Error("malformed directive suppressed a finding")
	}
}

func TestInScope(t *testing.T) {
	a := &Analyzer{Name: "x", DefaultScope: []string{"mllibstar/internal/engine", "mllibstar/internal/opt"}}
	cases := []struct {
		pkg  string
		want bool
	}{
		{"mllibstar/internal/engine", true},
		{"mllibstar/internal/engine/sub", true}, // prefix covers subpackages
		{"mllibstar/internal/engineer", false},  // not a path-segment match
		{"mllibstar/internal/opt", true},
		{"mllibstar/internal/vec", false},
	}
	for _, c := range cases {
		if got := a.InScope(c.pkg); got != c.want {
			t.Errorf("InScope(%q) = %v, want %v", c.pkg, got, c.want)
		}
	}
	empty := &Analyzer{Name: "y"}
	if !empty.InScope("anything/at/all") {
		t.Error("empty scope must cover every package")
	}
}
