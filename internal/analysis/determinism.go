package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism pins the cross-K bit-reproducibility contract in packages
// whose doc carries //flowsched:deterministic: identical inputs must
// yield identical schedules, so nothing observable may depend on map
// iteration order, a process-global random source, or the wall clock.
//
// Three checks:
//
//   - maprange: a `for … range m` over a map is flagged unless the
//     enclosing function also calls into sort/slices after the loop
//     starts (the collect-keys-then-sort idiom PR 1 installed), or the
//     loop carries //flowsched:allow maprange.
//   - rand: any call to a math/rand or math/rand/v2 package-level
//     function other than the New* constructors is a draw from the
//     process-global source — unseeded and shared. Seeded sources built
//     with rand.New(rand.NewSource(seed)) pass. Escape: allow rand.
//   - wallclock: time.Now/Since/Until feed nondeterministic values into
//     scheduling state. In packages that are also //flowsched:clockgated
//     the gatedclock analyzer owns clock discipline and this check
//     stands down. Escape: allow wallclock.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "reject unordered map iteration, global math/rand, and wall-clock input in //flowsched:deterministic packages",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	if !pass.Dirs.HasMark("deterministic") {
		return
	}
	checkClock := !pass.Dirs.HasMark("clockgated")
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkDeterminism(pass, fn, checkClock)
		}
	}
}

func checkDeterminism(pass *Pass, fn *ast.FuncDecl, checkClock bool) {
	info := pass.TypesInfo

	// Collect the function's sort/slices call positions first, so a map
	// range can look ahead for its adjacent sort.
	var sortCalls []token.Pos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if pkg := calleePkgPath(info, call); pkg == "sort" || pkg == "slices" {
				sortCalls = append(sortCalls, call.Pos())
			}
		}
		return true
	})
	sortedAfter := func(pos token.Pos) bool {
		for _, p := range sortCalls {
			if p > pos {
				return true
			}
		}
		return false
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.RangeStmt:
			t, ok := info.Types[node.X]
			if !ok {
				return true
			}
			if _, isMap := t.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if sortedAfter(node.Pos()) {
				return true // collect-then-sort idiom
			}
			pass.Reportf(node.Pos(), "maprange", "map iteration order is nondeterministic; collect keys and sort (no sort/slices call follows in %s)", funcLabel(fn))
		case *ast.CallExpr:
			pkg := calleePkgPath(info, node)
			switch {
			case pkg == "math/rand" || pkg == "math/rand/v2":
				sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fnObj, ok := info.Uses[sel.Sel].(*types.Func)
				if !ok {
					return true
				}
				if sig, ok := fnObj.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true // method on an explicit *Rand: seeded by construction
				}
				if strings.HasPrefix(fnObj.Name(), "New") {
					return true // building a seeded source/generator
				}
				pass.Reportf(node.Pos(), "rand", "%s.%s draws from the process-global source; use a seeded *rand.Rand", pkg, fnObj.Name())
			case checkClock && pkg == "time" && isClockCall(info, node):
				sel := node.Fun.(*ast.SelectorExpr)
				pass.Reportf(node.Pos(), "wallclock", "time.%s feeds wall-clock values into a deterministic package", sel.Sel.Name)
			}
		}
		return true
	})
}

// calleePkgPath returns the defining package path of a call's callee,
// "" when unresolvable (builtins, func values, conversions).
func calleePkgPath(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

func funcLabel(fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		return "method " + fn.Name.Name
	}
	return "function " + fn.Name.Name
}
