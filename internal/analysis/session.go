package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Session drives the suite over already-type-checked packages, analyzed
// in dependency order, sharing one fact store and one reach graph
// between them; RunStandalone and the analysistest harness both use one.
type Session struct {
	store *factStore
	reach *reachGraph
}

// NewSession creates a session with an empty fact store and reach graph.
func NewSession() *Session { return &Session{store: newFactStore(), reach: newReachGraph()} }

// Analyze runs every analyzer in the suite over one package and returns
// its position-sorted diagnostics, malformed directives included. Facts
// exported by the pass, and the package's reach graph, stay in the
// session for later calls.
func (s *Session) Analyze(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, module string) []Diagnostic {
	dirs := NewDirectives(fset, files)
	var diags []Diagnostic
	diags = append(diags, dirs.Malformed()...)
	for _, a := range Suite() {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Module:    module,
			Dirs:      dirs,
			facts:     s.store,
			reach:     s.reach,
			report: func(d Diagnostic) {
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			diags = append(diags, Diagnostic{
				Pos: token.NoPos, Check: a.Name,
				Message: fmt.Sprintf("internal error: %v", err),
			})
		}
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

// NewInfo allocates the types.Info with every map the suite consumes.
func NewInfo() *types.Info { return newTypesInfo() }
