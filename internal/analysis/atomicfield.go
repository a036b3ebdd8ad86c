package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicField keeps shared words in sync/atomic's typed wrappers
// (atomic.Int64, atomic.Uint64 …), whose type makes every access atomic.
// A call to a sync/atomic package-level function (atomic.LoadInt64(&s.f)
// …) is a finding: its operand is a plain word that any other line may
// read or write plainly, the mixed-access race the types rule out. A
// typed atomic field must not be copied by value either, which silently
// detaches the copy from the shared word; vet's copylocks catches that
// too, but tier-1 go test does not run it.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "forbid sync/atomic package-level calls (use the typed atomics) and by-value copies of typed atomic fields",
	Run:  runAtomicField,
}

func runAtomicField(pass *Pass) {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := atomicFunc(info, n); fn != nil {
					pass.Reportf(n.Pos(), "atomic", "call to atomic.%s on a plain word: use the typed atomics", fn.Name())
				}
			case *ast.SelectorExpr:
				if fld := selectedField(info, n); fld != nil && isTypedAtomic(fld.Type()) && copiesAtomicValue(stack) {
					pass.Reportf(n.Pos(), "atomic", "field %s has type %s and must not be copied by value", fld.Name(), fld.Type().String())
				}
			}
			return true
		})
	}
}

// atomicFunc returns the sync/atomic package-level function call calls,
// or nil.
func atomicFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return nil // atomic.Int64 methods manage their own word
	}
	return fn
}

// selectedField resolves a selector to the struct field it names, nil
// for methods, qualified identifiers, and non-field selections.
func selectedField(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	fld, _ := s.Obj().(*types.Var)
	return fld
}

// isTypedAtomic matches the sync/atomic wrapper types (atomic.Int64 …).
func isTypedAtomic(t types.Type) bool {
	nt, ok := t.(*types.Named)
	if !ok || nt.Obj().Pkg() == nil {
		return false
	}
	return nt.Obj().Pkg().Path() == "sync/atomic" && !strings.HasSuffix(nt.Obj().Name(), "Pointer")
}

// copiesAtomicValue inspects the selector's immediate context: method
// calls on the field and taking its address are fine, anything else
// moves the struct by value.
func copiesAtomicValue(stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	switch parent := stack[len(stack)-2].(type) {
	case *ast.SelectorExpr:
		return false // receiver of a method call: s.f.Add(1)
	case *ast.UnaryExpr:
		return parent.Op != token.AND
	}
	return true
}
