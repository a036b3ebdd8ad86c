package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Session is the exported entry point for driving the suite over
// already-type-checked packages — the analysistest harness uses it to
// analyze fixture packages in dependency order while sharing one fact
// store, exactly as RunStandalone does.
type Session struct {
	store *factStore
}

// NewSession creates a session with an empty fact store.
func NewSession() *Session { return &Session{store: newFactStore()} }

// Analyze runs every analyzer in the suite over one package and returns
// its position-sorted diagnostics, malformed directives included. Facts
// exported by the pass stay in the session for later Analyze calls.
func (s *Session) Analyze(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, module string) []Diagnostic {
	return runSuite(fset, files, pkg, info, module, s.store)
}

// NewInfo allocates the types.Info with every map the suite consumes.
func NewInfo() *types.Info { return newTypesInfo() }
