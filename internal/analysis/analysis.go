// Package analysis is flowschedvet's invariant suite: five custom static
// analyzers that make the streaming runtime's hot-path contracts —
// contracts stated in internal/stream's docs and until now enforced only
// dynamically by alloc_test.go, the cross-K determinism suite, and hand
// review — checkable at build time, on every package, in CI; and one
// that keeps production code to what a binary reaches.
//
// The five analyzers (Suite returns them in order):
//
//   - hotpath: functions annotated //flowsched:hotpath, and everything
//     they transitively call through static calls, must be free of
//     heap-allocating constructs. See hotpath.go for the construct list
//     and the cross-package fact propagation.
//   - gatedclock: in packages annotated //flowsched:clockgated, every
//     wall-clock read (time.Now / time.Since / time.Until) must be
//     dominated by a nil check of a *FlightRecorder — the "zero clock
//     reads uninstrumented" contract.
//   - atomicfield: shared words are sync/atomic's typed wrappers
//     (atomic.Int64 …), so the type makes every access atomic. A call to
//     a sync/atomic package-level function, whose operand is a plain
//     word, is a finding ("use the typed atomics"), and so is a
//     by-value copy of a typed atomic field.
//   - determinism: in packages annotated //flowsched:deterministic, no
//     raw map iteration (outside the collect-then-sort idiom), no
//     global math/rand, no wall-clock input — the cross-K
//     bit-reproducibility contract PR 1 had to retrofit dynamically.
//   - reach: over the whole module, every package-level declaration of
//     a non-main package is reached from a main or an init, or is marked
//     //flowsched:testonly <why> (itself or its package clause). The
//     root package's exports are held to it like any other.
//
// Deliberate exceptions carry a justified escape hatch in the source:
//
//	//flowsched:allow <check>: <one-line justification>
//
// (checks: alloc, clock, atomic, maprange, rand, wallclock). A bare
// allow without a justification is itself a finding. The testonly
// marks are held to a budget that only goes down.
//
// The framework below borrows the golang.org/x/tools/go/analysis names
// — Analyzer, Pass, Diagnostic — but is built on the standard library
// alone (go/ast, go/types, go/importer), because this repository carries
// no module dependencies. Code is loaded one way: Run (load.go) loads
// packages with `go list`, analyzes them in dependency order in one
// process through a Session, which carries hotpath's per-function
// verdicts between packages in a typed map and gives the reach verdict
// when the packages cover the whole module. cmd/flowschedvet (through
// RunStandalone, which prints Run's findings), TestRepoClean and every
// fixture test call it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check. Run inspects a single package
// through its Pass and reports findings; cross-package state flows
// through the Session the Pass points into, never through analyzer
// globals.
type Analyzer struct {
	// Name is the check's identifier in diagnostics and CLI output.
	Name string
	// Doc is the one-paragraph description printed by -help.
	Doc string
	// Run analyzes one package; findings go through Pass.Report.
	Run func(*Pass)
}

// Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos token.Pos
	// Check names the allow-hatch check the finding belongs to (e.g.
	// "alloc"); //flowsched:allow <Check> on the offending line
	// suppresses it.
	Check   string
	Message string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module is the path of the module under analysis ("flowsched");
	// packages outside it are dependencies, analyzed for facts only.
	Module string
	// Dirs holds the package's parsed //flowsched: directives.
	Dirs *Directives

	// report receives findings; the driver wires it.
	report func(Diagnostic)
	// allocs holds hotpath's verdict on every function analyzed so far,
	// keyed by objectKey; the driver wires it.
	allocs map[string]allocFact
	// reach collects the module's declarations for the reach check.
	reach *reachGraph
}

// Report files one finding unless an allow directive for its check
// covers its position.
func (p *Pass) Report(d Diagnostic) {
	if p.Dirs != nil {
		if _, ok := p.Dirs.Allowed(d.Check, d.Pos); ok {
			return
		}
	}
	p.report(d)
}

// Reportf is Report with formatting.
func (p *Pass) Reportf(pos token.Pos, check, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Check: check, Message: fmt.Sprintf(format, args...)})
}

// objectKey is the stable cross-load identity of a package-level object:
// the same function yields the same key whether its package was
// type-checked from source (when it is analyzed) or loaded from gc
// export data (when a package importing it is).
func objectKey(obj types.Object) string {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return pkg + "." + recvString(sig.Recv().Type()) + "." + obj.Name()
		}
	}
	return pkg + "." + obj.Name()
}

// recvString renders a receiver type as "(T)" or "(*T)" without package
// qualification (the key already carries the package path).
func recvString(t types.Type) string {
	ptr := ""
	if pt, ok := t.(*types.Pointer); ok {
		ptr = "*"
		t = pt.Elem()
	}
	name := "?"
	switch nt := t.(type) {
	case *types.Named:
		name = nt.Obj().Name()
	case *types.Alias:
		name = nt.Obj().Name()
	}
	return "(" + ptr + name + ")"
}

// Suite returns the flowschedvet analyzers in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{HotPath, GatedClock, AtomicField, Determinism, Reach}
}

// sortDiagnostics orders findings by position for stable output.
func sortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}
