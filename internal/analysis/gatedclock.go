package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GatedClock pins the "zero clock reads uninstrumented" contract: in a
// package whose doc carries //flowsched:clockgated, every wall-clock
// read (time.Now, time.Since, time.Until) must be dominated by a nil
// check of a flight recorder — either an enclosing `if rec != nil { … }`
// (the read in the taken branch, possibly through && conjuncts) or an
// earlier `if rec == nil { return … }` early exit in an enclosing block.
// A guard expression qualifies when its type is a pointer to a named
// type called FlightRecorder, or when the checked variable or field is
// literally named rec. Deliberate exceptions use //flowsched:allow
// clock.
var GatedClock = &Analyzer{
	Name: "gatedclock",
	Doc:  "require time.Now/Since/Until in //flowsched:clockgated packages to be guarded by a recorder nil check",
	Run:  runGatedClock,
}

var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runGatedClock(pass *Pass) {
	if !pass.Dirs.HasMark("clockgated") {
		return
	}
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok || !isClockCall(pass.TypesInfo, call) {
				return true
			}
			if !clockGuarded(pass.TypesInfo, stack) {
				name := "time.Now"
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					name = "time." + sel.Sel.Name
				}
				pass.Reportf(call.Pos(), "clock", "%s is not dominated by a recorder nil check (wall-clock reads must be gated on rec != nil)", name)
			}
			return true
		})
	}
}

// isClockCall matches time.Now / time.Since / time.Until.
func isClockCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "time" && clockFuncs[fn.Name()]
}

// clockGuarded walks the enclosing-node stack of a clock call looking
// for a dominating recorder guard.
func clockGuarded(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch node := stack[i].(type) {
		case *ast.IfStmt:
			// Guarded if the call sits in the body of `if rec != nil`.
			if i+1 < len(stack) && stack[i+1] == node.Body && condChecksRecorder(info, node.Cond, token.NEQ) {
				return true
			}
		case *ast.BlockStmt:
			// Or an earlier sibling `if rec == nil { return }` early exit.
			if i+1 < len(stack) && earlyExitGuard(info, node, stack[i+1]) {
				return true
			}
		}
	}
	return false
}

// earlyExitGuard reports whether a statement before `until` in block is
// an `if rec == nil` that cannot fall through.
func earlyExitGuard(info *types.Info, block *ast.BlockStmt, until ast.Node) bool {
	for _, stmt := range block.List {
		if stmt == until {
			return false
		}
		ifs, ok := stmt.(*ast.IfStmt)
		if !ok || ifs.Else != nil || len(ifs.Body.List) == 0 {
			continue
		}
		if !condChecksRecorder(info, ifs.Cond, token.EQL) {
			continue
		}
		switch ifs.Body.List[len(ifs.Body.List)-1].(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			return true
		}
	}
	return false
}

// condChecksRecorder reports whether cond contains, possibly through &&,
// a comparison of a recorder expression against nil with operator op.
func condChecksRecorder(info *types.Info, cond ast.Expr, op token.Token) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			return condChecksRecorder(info, e.X, op) || condChecksRecorder(info, e.Y, op)
		}
		if e.Op != op {
			return false
		}
		x, y := ast.Unparen(e.X), ast.Unparen(e.Y)
		if isNilIdent(info, y) {
			return isRecorderExpr(info, x)
		}
		if isNilIdent(info, x) {
			return isRecorderExpr(info, y)
		}
	}
	return false
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// isRecorderExpr accepts *FlightRecorder-typed expressions and anything
// whose terminal name is rec.
func isRecorderExpr(info *types.Info, e ast.Expr) bool {
	if t, ok := info.Types[e]; ok && t.Type != nil {
		if pt, ok := t.Type.(*types.Pointer); ok {
			switch nt := pt.Elem().(type) {
			case *types.Named:
				if nt.Obj().Name() == "FlightRecorder" {
					return true
				}
			}
		}
	}
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == "rec"
	case *ast.SelectorExpr:
		return x.Sel.Name == "rec"
	}
	return false
}
