package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// The source annotation grammar. Directives are ordinary //-comments
// beginning exactly with "//flowsched:" (no space — the doc-comment
// directive convention, so godoc hides them and gofmt leaves them
// alone):
//
//	//flowsched:hotpath
//	    On a function's doc comment: the function is a hot-path root.
//	    The hotpath analyzer requires it, and everything it reaches
//	    through static calls, to be allocation-free.
//
//	//flowsched:clockgated
//	//flowsched:deterministic
//	    Anywhere in a package (conventionally its package doc): opt the
//	    package into the gatedclock / determinism analyzers.
//
//	//flowsched:allow <check>: <justification>
//	    Suppress findings of <check> (alloc, clock, atomic, maprange,
//	    rand, wallclock) in the directive's extent: the whole function
//	    when it rides a function's doc comment, otherwise its own line
//	    and the next (covering both end-of-line and lead positions). The
//	    justification is mandatory; an allow without one is itself
//	    reported.
//
//	//flowsched:testonly <why>
//	    On a package-level declaration's doc comment, or on the package
//	    clause's: the declaration (every declaration of the package) is
//	    test support no binary reaches, and the reach check takes it as a
//	    root. The reason, naming the test or ROADMAP item that needs it,
//	    is mandatory.

// Checks valid in an allow directive, mapped to their analyzer.
var allowChecks = map[string]string{
	"alloc": "hotpath",
	"clock": "gatedclock",
	// atomic covers a sync/atomic package-level call or a by-value copy
	// of a typed atomic field; no code carries one, since the typed
	// atomics cost a hot path nothing over the calls.
	"atomic":    "atomicfield",
	"maprange":  "determinism",
	"rand":      "determinism",
	"wallclock": "determinism",
}

// Package-level marker verbs.
var pkgMarks = map[string]bool{
	"clockgated":    true,
	"deterministic": true,
}

// allowance is one parsed allow directive with its coverage extent.
type allowance struct {
	check, why string
	// Function-doc allows cover [lo, hi]; line allows cover their own
	// and the following source line of their file.
	lo, hi     token.Pos
	file       string
	line       int
	wholeRange bool
}

// Directives holds one package's parsed //flowsched: annotations.
type Directives struct {
	fset    *token.FileSet
	marks   map[string]bool
	hotpath map[*ast.FuncDecl]bool
	allows  []allowance
	// testonly maps a marked declaration (*ast.FuncDecl, *ast.GenDecl),
	// or the *ast.File whose package clause is marked, to the mark's
	// position.
	testonly map[ast.Node]token.Pos
	// Malformed directives, reported by the driver.
	malformed []Diagnostic
}

// NewDirectives parses every //flowsched: comment in files.
func NewDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{
		fset:     fset,
		marks:    map[string]bool{},
		hotpath:  map[*ast.FuncDecl]bool{},
		testonly: map[ast.Node]token.Pos{},
	}
	for _, f := range files {
		// Map doc-comment groups to what they document, so a directive
		// in one resolves to its declaration (a function's extent, for
		// hotpath and allow) or to the package clause.
		owner := map[*ast.CommentGroup]ast.Node{}
		if f.Doc != nil {
			owner[f.Doc] = f
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Doc != nil {
					owner[decl.Doc] = decl
				}
			case *ast.GenDecl:
				if decl.Doc != nil {
					owner[decl.Doc] = decl
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d.parse(c, owner[cg])
			}
		}
	}
	return d
}

// parse handles one comment; owner is what the comment's group
// documents (a declaration, or the *ast.File of a package clause), or
// nil.
func (d *Directives) parse(c *ast.Comment, owner ast.Node) {
	fn, _ := owner.(*ast.FuncDecl)
	const prefix = "//flowsched:"
	if !strings.HasPrefix(c.Text, prefix) {
		return
	}
	body := strings.TrimPrefix(c.Text, prefix)
	// Fixture sources append the fixture tests' // want expectations to
	// directive lines; they are not part of the directive.
	if i := strings.Index(body, "// want"); i >= 0 {
		body = body[:i]
	}
	body = strings.TrimSpace(body)
	verb, rest, _ := strings.Cut(body, " ")
	switch {
	case verb == "hotpath":
		if fn == nil {
			d.fail(c, "//flowsched:hotpath must ride a function's doc comment")
			return
		}
		d.hotpath[fn] = true
	case pkgMarks[verb]:
		d.marks[verb] = true
	case verb == "allow":
		check, why, ok := strings.Cut(strings.TrimSpace(rest), ":")
		check = strings.TrimSpace(check)
		if allowChecks[check] == "" {
			d.fail(c, "//flowsched:allow needs a known check (alloc, clock, atomic, maprange, rand, wallclock), got %q", check)
			return
		}
		if why = strings.TrimSpace(why); !ok || why == "" {
			d.fail(c, "//flowsched:allow %s needs a justification: //flowsched:allow %s: <why>", check, check)
			return
		}
		a := allowance{check: check, why: why}
		if fn != nil {
			a.wholeRange, a.lo, a.hi = true, fn.Pos(), fn.End()
		} else {
			pos := d.fset.Position(c.Slash)
			a.file, a.line = pos.Filename, pos.Line
		}
		d.allows = append(d.allows, a)
	case verb == "testonly":
		if owner == nil || strings.TrimSpace(rest) == "" {
			d.fail(c, "//flowsched:testonly needs a reason, on a package-level declaration's or the package clause's doc comment")
			return
		}
		d.testonly[owner] = c.Slash
	default:
		d.fail(c, "unknown //flowsched: directive %q", verb)
	}
}

func (d *Directives) fail(c *ast.Comment, format string, args ...any) {
	d.malformed = append(d.malformed, Diagnostic{
		Pos: c.Slash, Check: "directive", Message: fmt.Sprintf(format, args...),
	})
}

// HasMark reports a package-level marker (clockgated, deterministic).
func (d *Directives) HasMark(mark string) bool { return d.marks[mark] }

// IsHotPath reports whether fn carries the hotpath annotation.
func (d *Directives) IsHotPath(fn *ast.FuncDecl) bool { return d.hotpath[fn] }

// HotPathRoots returns the annotated functions.
func (d *Directives) HotPathRoots() []*ast.FuncDecl {
	roots := make([]*ast.FuncDecl, 0, len(d.hotpath))
	for fn := range d.hotpath {
		roots = append(roots, fn)
	}
	return roots
}

// Allowed reports whether an allow directive for check covers pos, and
// with what justification.
func (d *Directives) Allowed(check string, pos token.Pos) (string, bool) {
	if !pos.IsValid() {
		return "", false
	}
	var p token.Position
	for i := range d.allows {
		a := &d.allows[i]
		if a.check != check {
			continue
		}
		if a.wholeRange {
			if a.lo <= pos && pos < a.hi {
				return a.why, true
			}
			continue
		}
		if !p.IsValid() {
			p = d.fset.Position(pos)
		}
		if p.Filename == a.file && (p.Line == a.line || p.Line == a.line+1) {
			return a.why, true
		}
	}
	return "", false
}

// Malformed returns the package's malformed-directive findings.
func (d *Directives) Malformed() []Diagnostic { return d.malformed }
