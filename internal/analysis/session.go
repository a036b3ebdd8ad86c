package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Session drives the suite over already-type-checked packages, analyzed
// in dependency order, sharing one map of hotpath verdicts and one reach
// graph between them; Run creates one per load.
type Session struct {
	// allocs is hotpath's verdict on every function of the packages
	// analyzed so far, keyed by objectKey: an upstream package's entries
	// are there when a downstream package's pass reads them.
	allocs map[string]allocFact
	reach  *reachGraph
}

func newSession() *Session {
	return &Session{allocs: map[string]allocFact{}, reach: newReachGraph()}
}

// Analyze runs every analyzer in the suite over one package and returns
// its position-sorted diagnostics, malformed directives included. The
// package's hotpath verdicts and reach graph stay in the session for
// later calls.
func (s *Session) Analyze(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, module string) []Diagnostic {
	dirs := NewDirectives(fset, files)
	diags := dirs.Malformed()
	for _, a := range Suite() {
		a.Run(&Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Module:    module,
			Dirs:      dirs,
			allocs:    s.allocs,
			reach:     s.reach,
			report: func(d Diagnostic) {
				diags = append(diags, d)
			},
		})
	}
	sortDiagnostics(fset, diags)
	return diags
}

// Reach returns the reach check's position-sorted findings over the
// packages analyzed so far, which must be the whole module: a package
// left out takes its references with it.
func (s *Session) Reach(fset *token.FileSet) []Diagnostic {
	diags := s.reach.findings()
	sortDiagnostics(fset, diags)
	return diags
}
