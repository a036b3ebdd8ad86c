package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicField catches the mixed-access bug class: once any access to a
// struct field goes through sync/atomic (atomic.LoadInt64(&s.f),
// atomic.StoreUint64(&s.f[i], …)), every other access to that field in
// the package must be atomic too — a plain read or write would race with
// the atomic side. Fields declared with the typed atomic.* wrappers
// (atomic.Int64 …) are checked for by-value copies, which silently
// detach the copy from the shared word.
//
// The analysis is per-package: every field it can reason about in this
// repository is unexported, so all accesses are in-package by
// construction. Single-writer disciplines that deliberately mix plain
// reads with atomic stores (the seqlock'd stats ring) annotate the field
// declaration with //flowsched:allow atomic, which suppresses every
// finding for that field at once.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "require fields accessed via sync/atomic anywhere to be accessed atomically everywhere",
	Run:  runAtomicField,
}

func runAtomicField(pass *Pass) error {
	info := pass.TypesInfo

	// Pass 1: find fields whose address reaches a sync/atomic call, and
	// remember the sanctioned selector nodes (those inside such calls).
	atomicFields := map[*types.Var][]token.Pos{}
	sanctioned := map[ast.Node]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(info, call) || len(call.Args) == 0 {
				return true
			}
			if fld, sel := addressedField(info, call.Args[0]); fld != nil {
				atomicFields[fld] = append(atomicFields[fld], call.Pos())
				sanctioned[sel] = true
			}
			return true
		})
	}

	// Pass 2: every other access to those fields must itself be atomic;
	// typed atomic.* fields must not be copied by value.
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fld := selectedField(info, sel)
			if fld == nil {
				return true
			}
			if _, hot := atomicFields[fld]; hot {
				if sanctioned[sel] || ancestorSanctioned(stack, sanctioned) {
					return true
				}
				if _, ok := pass.Dirs.Allowed("atomic", fld.Pos()); ok {
					return true
				}
				pass.Reportf(sel.Pos(), "atomic", "field %s is accessed with sync/atomic elsewhere in this package; this plain access races with it", fld.Name())
				return true
			}
			if isTypedAtomic(fld.Type()) && copiesAtomicValue(stack) {
				pass.Reportf(sel.Pos(), "atomic", "field %s has type %s and must not be copied by value", fld.Name(), fld.Type().String())
			}
			return true
		})
	}
	return nil
}

// isAtomicCall matches calls to sync/atomic package-level functions.
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false // atomic.Int64 methods manage their own word
	}
	return fn.Pkg().Path() == "sync/atomic"
}

// addressedField unwraps &s.f or &s.f[i] to the field variable and the
// selector node that names it.
func addressedField(info *types.Info, arg ast.Expr) (*types.Var, *ast.SelectorExpr) {
	un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil, nil
	}
	x := ast.Unparen(un.X)
	if ix, ok := x.(*ast.IndexExpr); ok {
		x = ast.Unparen(ix.X)
	}
	sel, ok := x.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	return selectedField(info, sel), sel
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

// ancestorSanctioned reports whether the selector sits inside a
// sanctioned one (s.f in the sanctioned &s.f[i]'s path, for example).
func ancestorSanctioned(stack []ast.Node, sanctioned map[ast.Node]bool) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if sanctioned[stack[i]] {
			return true
		}
	}
	return false
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
