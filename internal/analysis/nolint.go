package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// NolintMarker is the comment that suppresses findings:
//
//	x := weird()          //mlstar:nolint floateq -- exact sentinel by design
//	//mlstar:nolint determinism -- order-insensitive: counts into a map
//	for k := range m { ... }
//
// A directive must name the analyzer(s) it silences (comma-separated) and
// must attach to a statement or declaration: either trailing on the line
// where the statement starts, or on a line of its own directly above it. It
// then suppresses only the named analyzers, and only within the source span
// of that one statement or declaration — a directive can never silence a
// different analyzer, or reach code it is not attached to. The span of a
// statement with a body (for, range, if, switch, select) ends at the body's
// opening brace: the statements inside take their own directives, so a
// directive on a map range silences the range, not a float fold in its
// body. Everything after " -- " is a justification for human readers (and
// reviewers: a directive without one reads as unexplained).
//
// Malformed directives — a bare marker naming no analyzer, a name that is
// no analyzer of the suite, or a marker with no statement to attach to —
// are themselves reported as findings (analyzer name "nolint"), so a
// directive that silently stopped matching fails the lint gate instead of
// rotting.
const NolintMarker = "//mlstar:nolint"

// Directive is one parsed, attached nolint comment.
type Directive struct {
	Path      string
	Line      int      // line the comment sits on
	Analyzers []string // named analyzers (non-empty for valid directives)
	FromLine  int      // first line of the attached node
	ToLine    int      // last line of the attached node
}

// Misuse is a malformed directive, reported as a finding by the driver.
type Misuse struct {
	Pos     token.Pos
	Message string
}

// Suppressor answers whether a diagnostic is covered by an attached
// directive naming its analyzer. Build it per package with AddPackage.
type Suppressor struct {
	byFile map[string][]Directive
	known  map[string]bool // the suite's analyzer names; nil accepts any
}

// NewSuppressor returns an empty Suppressor. Given the suite's analyzer
// names, it reports a directive naming any other as a misuse.
func NewSuppressor(known ...string) *Suppressor {
	s := &Suppressor{byFile: map[string][]Directive{}}
	if len(known) > 0 {
		s.known = map[string]bool{}
		for _, name := range known {
			s.known[name] = true
		}
	}
	return s
}

// AddPackage parses and attaches every nolint directive in the package's
// files, returning the misuses it found.
func (s *Suppressor) AddPackage(fset *token.FileSet, files []*ast.File) []Misuse {
	var misuses []Misuse
	for _, f := range files {
		dirs, mis := collectFile(fset, f, s.known)
		for _, d := range dirs {
			s.byFile[d.Path] = append(s.byFile[d.Path], d)
		}
		misuses = append(misuses, mis...)
	}
	sort.Slice(misuses, func(i, j int) bool { return misuses[i].Pos < misuses[j].Pos })
	return misuses
}

// Suppressed reports whether a finding of the named analyzer at
// filename:line is covered by a directive naming that analyzer whose
// attached node spans the line.
func (s *Suppressor) Suppressed(filename string, line int, analyzer string) bool {
	for _, d := range s.byFile[filename] {
		if line < d.FromLine || line > d.ToLine {
			continue
		}
		for _, name := range d.Analyzers {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// attachable reports whether n is a node a directive may attach to: any
// statement except a bare block, any declaration, or an import/const/var/
// type spec.
func attachable(n ast.Node) bool {
	switch n.(type) {
	case *ast.BlockStmt:
		return false
	case ast.Stmt, ast.Spec, *ast.GenDecl, *ast.FuncDecl:
		return true
	}
	return false
}

// stmtBody returns the body of a statement whose header a directive covers
// (for, range, if, switch, select), or nil.
func stmtBody(n ast.Node) *ast.BlockStmt {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n.Body
	case *ast.RangeStmt:
		return n.Body
	case *ast.IfStmt:
		return n.Body
	case *ast.SwitchStmt:
		return n.Body
	case *ast.TypeSwitchStmt:
		return n.Body
	case *ast.SelectStmt:
		return n.Body
	}
	return nil
}

// candidate is one attachable node's line extent.
type candidate struct {
	from, to int
	isDecl   bool
}

// collectFile parses the file's directives and attaches each to a node.
func collectFile(fset *token.FileSet, f *ast.File, known map[string]bool) ([]Directive, []Misuse) {
	var cands []candidate
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !attachable(n) {
			return true
		}
		_, isFunc := n.(*ast.FuncDecl)
		_, isGen := n.(*ast.GenDecl)
		end := n.End()
		if body := stmtBody(n); body != nil {
			end = body.Lbrace
		}
		cands = append(cands, candidate{
			from:   fset.Position(n.Pos()).Line,
			to:     fset.Position(end).Line,
			isDecl: isFunc || isGen,
		})
		return true
	})

	var dirs []Directive
	var misuses []Misuse
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			names, found := nolintNames(c.Text)
			if !found {
				continue
			}
			pos := fset.Position(c.Pos())
			if names == "" {
				misuses = append(misuses, Misuse{Pos: c.Pos(),
					Message: "bare nolint directive: name the analyzer(s) it suppresses (//mlstar:nolint <analyzer> -- reason)"})
				continue
			}
			var list []string
			for _, n := range strings.Split(names, ",") {
				if n = strings.TrimSpace(n); n == "" {
					continue
				}
				if known != nil && !known[n] {
					misuses = append(misuses, Misuse{Pos: c.Pos(),
						Message: "nolint directive names " + n + ", which is no analyzer of the suite (mlstar-lint -list names them)"})
					continue
				}
				list = append(list, n)
			}
			from, to, ok := attach(cands, pos.Line)
			if !ok {
				misuses = append(misuses, Misuse{Pos: c.Pos(),
					Message: "unattached nolint directive: it must trail the statement it suppresses or sit on the line directly above it"})
				continue
			}
			dirs = append(dirs, Directive{
				Path: pos.Filename, Line: pos.Line,
				Analyzers: list, FromLine: from, ToLine: to,
			})
		}
	}
	return dirs, misuses
}

// attach picks the node a directive at the given line governs: the smallest
// attachable node starting on the directive's line (a trailing comment),
// else the smallest starting on the next line (a leading comment), else —
// for a comment inside a multi-line statement — the innermost enclosing
// statement. Declarations only attach by their first line, never by
// enclosure, so a stray directive inside a function body cannot silently
// cover the whole function.
func attach(cands []candidate, line int) (from, to int, ok bool) {
	best := func(match func(candidate) bool) (candidate, bool) {
		var b candidate
		found := false
		for _, c := range cands {
			if !match(c) {
				continue
			}
			if !found || c.to-c.from < b.to-b.from {
				b, found = c, true
			}
		}
		return b, found
	}
	if c, found := best(func(c candidate) bool { return c.from == line }); found {
		return c.from, c.to, true
	}
	if c, found := best(func(c candidate) bool { return c.from == line+1 }); found {
		return c.from, c.to, true
	}
	if c, found := best(func(c candidate) bool { return !c.isDecl && c.from < line && line <= c.to }); found {
		return c.from, c.to, true
	}
	return 0, 0, false
}

// nolintNames extracts the analyzer list following the marker, with the
// optional " -- reason" suffix stripped. found is false when the comment is
// not a directive. Following the Go directive convention, only a comment
// whose text BEGINS with the marker counts — prose or code examples that
// merely mention //mlstar:nolint mid-comment are not directives and are not
// misuses.
func nolintNames(comment string) (names string, found bool) {
	if !strings.HasPrefix(comment, NolintMarker) {
		return "", false
	}
	rest := comment[len(NolintMarker):]
	if j := strings.Index(rest, "--"); j >= 0 {
		rest = rest[:j]
	}
	return strings.TrimSpace(rest), true
}
