package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPath enforces the zero-alloc contract: a function whose doc comment
// carries //flowsched:hotpath, and every function it transitively
// reaches through static calls, must be free of heap-allocating
// constructs. The construct list is deliberately conservative — it
// over-approximates what the compiler's escape analysis would reject, so
// every deliberate exception (amortized append to a length-reset scratch
// slice, a non-escaping Each closure, the cold error path) must carry
// a justified //flowsched:allow alloc, turning the package's informal
// performance notes into checked annotations.
//
// Flagged constructs: make, new, append, map writes, map/slice composite
// literals, &composite literals, closures capturing variables, string
// concatenation and string<->[]byte/[]rune conversions, conversions or
// assignments of concrete values into interfaces, variadic argument
// packing, go statements, and any call into a package not on the
// known-clean list (math, math/bits, sync/atomic) that has no published
// "does not allocate" verdict. Dynamic calls (interface methods, func
// values) are not followed; implementations of hot interfaces carry
// their own //flowsched:hotpath root (every native policy's Pick does).
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "reject heap-allocating constructs in //flowsched:hotpath functions and everything they statically call",
	Run:  runHotPath,
}

// allocFact is the cross-package verdict on one function, recorded in
// Pass.allocs for every function of an analyzed package under its
// objectKey.
type allocFact struct {
	allocates bool
	reason    string
}

// cleanPkgs are stdlib packages whose functions never heap-allocate.
var cleanPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// allocSite is one flagged construct inside a function body.
type allocSite struct {
	pos     token.Pos
	desc    string
	allowed bool // covered by //flowsched:allow alloc — excluded from poisoning
}

// callEdge is one statically resolved call out of a function body.
type callEdge struct {
	pos    token.Pos
	callee *types.Func
	// desc/allocates are pre-resolved for external callees; internal
	// edges resolve through the fixpoint instead.
	internal  bool
	allocates bool
	desc      string
	allowed   bool
}

// fnSummary is one function's scan result plus its fixpoint verdict.
type fnSummary struct {
	decl      *ast.FuncDecl
	sites     []allocSite
	calls     []callEdge
	allocates bool
	reason    string
}

func runHotPath(pass *Pass) {
	idx := indexFuncs(pass)
	sums := map[*types.Func]*fnSummary{}
	var order []*types.Func // declaration order, for stable fixpoint + facts
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj := idx.objs[fn]
			if obj == nil {
				continue
			}
			sums[obj] = scanFunc(pass, fn)
			order = append(order, obj)
		}
	}

	// Fixpoint: a function allocates if any unallowed local site, any
	// allocating external call, or any internal call to an allocating
	// function. Iterate until stable (the graph is small).
	for changed := true; changed; {
		changed = false
		for _, obj := range order {
			s := sums[obj]
			if s.allocates {
				continue
			}
			if why, bad := verdict(pass, sums, s); bad {
				s.allocates, s.reason = true, why
				changed = true
			}
		}
	}

	// Record the verdicts for downstream packages.
	for _, obj := range order {
		s := sums[obj]
		pass.allocs[objectKey(obj)] = allocFact{s.allocates, s.reason}
	}

	// Report every unallowed site reachable from a //flowsched:hotpath
	// root, with the static call chain that reaches it.
	reported := map[token.Pos]bool{}
	for _, root := range pass.Dirs.HotPathRoots() {
		rootObj := idx.objs[root]
		if rootObj == nil || sums[rootObj] == nil {
			continue
		}
		reportReachable(pass, sums, rootObj, reported)
	}
}

// verdict decides whether s allocates given the current fixpoint state,
// returning the first cause.
func verdict(pass *Pass, sums map[*types.Func]*fnSummary, s *fnSummary) (string, bool) {
	for i := range s.sites {
		if !s.sites[i].allowed {
			return s.sites[i].desc, true
		}
	}
	for i := range s.calls {
		c := &s.calls[i]
		if c.allowed {
			continue
		}
		if c.internal {
			if cs := sums[c.callee]; cs != nil && cs.allocates {
				return "calls " + funcDisplayName(c.callee) + ", which " + shortReason(cs.reason), true
			}
			continue
		}
		if c.allocates {
			return c.desc, true
		}
	}
	return "", false
}

// shortReason compresses a nested reason chain for call-site messages.
func shortReason(r string) string {
	if r == "" {
		return "may allocate"
	}
	if i := strings.Index(r, ", which"); i >= 0 {
		r = r[:i] + " (…)"
	}
	return r
}

// reportReachable walks the static call graph from root, reporting every
// unallowed allocation site it reaches, annotated with the chain.
func reportReachable(pass *Pass, sums map[*types.Func]*fnSummary, root *types.Func, reported map[token.Pos]bool) {
	type qent struct {
		fn    *types.Func
		chain string
	}
	seen := map[*types.Func]bool{root: true}
	queue := []qent{{root, funcDisplayName(root)}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		s := sums[cur.fn]
		if s == nil {
			continue
		}
		for i := range s.sites {
			site := &s.sites[i]
			if site.allowed || reported[site.pos] {
				continue
			}
			reported[site.pos] = true
			pass.Reportf(site.pos, "alloc", "hot path (%s): %s", cur.chain, site.desc)
		}
		for i := range s.calls {
			c := &s.calls[i]
			if c.allowed {
				continue
			}
			if !c.internal {
				if c.allocates && !reported[c.pos] {
					reported[c.pos] = true
					pass.Reportf(c.pos, "alloc", "hot path (%s): %s", cur.chain, c.desc)
				}
				continue
			}
			if !seen[c.callee] {
				seen[c.callee] = true
				queue = append(queue, qent{c.callee, cur.chain + " → " + funcDisplayName(c.callee)})
			}
		}
	}
}

// scanFunc collects fn's allocation sites and outgoing static calls.
func scanFunc(pass *Pass, fn *ast.FuncDecl) *fnSummary {
	s := &fnSummary{decl: fn}
	info := pass.TypesInfo
	addSite := func(pos token.Pos, format string, args ...any) {
		_, allowed := pass.Dirs.Allowed("alloc", pos)
		s.sites = append(s.sites, allocSite{pos: pos, desc: fmt.Sprintf(format, args...), allowed: allowed})
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.GoStmt:
			addSite(node.Pos(), "go statement spawns a goroutine")

		case *ast.FuncLit:
			if caps := capturedVars(info, node); len(caps) > 0 {
				addSite(node.Pos(), "closure captures %s", strings.Join(caps, ", "))
			}
			// Keep walking: calls inside the literal run on the hot path.

		case *ast.CompositeLit:
			if t, ok := info.Types[node]; ok {
				switch t.Type.Underlying().(type) {
				case *types.Map:
					addSite(node.Pos(), "map literal allocates")
				case *types.Slice:
					addSite(node.Pos(), "slice literal allocates")
				}
			}

		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					addSite(node.Pos(), "&composite literal escapes to the heap")
				}
			}

		case *ast.BinaryExpr:
			if node.Op == token.ADD {
				if t, ok := info.Types[node]; ok && isString(t.Type) {
					addSite(node.Pos(), "string concatenation allocates")
				}
			}

		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if t, ok := info.Types[ix.X]; ok {
						if _, isMap := t.Type.Underlying().(*types.Map); isMap {
							addSite(lhs.Pos(), "map assignment may grow the map")
						}
					}
				}
				if i < len(node.Rhs) {
					checkIfaceAssign(info, addSite, lhs, node.Rhs[i])
				}
			}

		case *ast.ReturnStmt:
			checkIfaceReturn(info, addSite, fn, node)

		case *ast.CallExpr:
			scanCall(pass, s, addSite, node)
		}
		return true
	})
	return s
}

// scanCall classifies one call expression: builtin, conversion, static
// call edge, or ignored dynamic call; it also checks interface boxing
// and variadic packing at the arguments.
func scanCall(pass *Pass, s *fnSummary, addSite func(token.Pos, string, ...any), call *ast.CallExpr) {
	info := pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion. string <-> []byte/[]rune and to-string allocate.
		dst := tv.Type
		if len(call.Args) == 1 {
			if src, ok := info.Types[call.Args[0]]; ok {
				if convAllocates(dst, src.Type) {
					addSite(call.Pos(), "conversion %s allocates", types.TypeString(dst, types.RelativeTo(pass.Pkg)))
				}
				checkIfaceConv(addSite, call.Pos(), dst, src.Type)
			}
		}
		return
	}

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				addSite(call.Pos(), "make allocates")
			case "new":
				addSite(call.Pos(), "new allocates")
			case "append":
				addSite(call.Pos(), "append may grow the backing array")
			}
			return
		}
	}

	fn := staticCallee(info, call)
	if fn == nil {
		return // dynamic dispatch / func value: not followed (see doc)
	}
	fn = fn.Origin()

	// Interface boxing and variadic packing at the call's arguments.
	if sig, ok := fn.Type().(*types.Signature); ok {
		checkCallArgs(info, addSite, call, sig)
	}

	_, allowed := pass.Dirs.Allowed("alloc", call.Pos())
	edge := callEdge{pos: call.Pos(), callee: fn, allowed: allowed}
	switch pkg := fn.Pkg(); {
	case pkg == nil:
		// error.Error, unsafe, etc.: no allocation.
		return
	case pkg == pass.Pkg:
		edge.internal = true
	case cleanPkgs[pkg.Path()]:
		return
	case pkg.Path() == pass.Module || strings.HasPrefix(pkg.Path(), pass.Module+"/"):
		if fact, ok := pass.allocs[objectKey(fn)]; !ok {
			edge.allocates = true
			edge.desc = "calls " + pkg.Name() + "." + funcDisplayName(fn) + ", which has no hotpath fact"
		} else if fact.allocates {
			edge.allocates = true
			edge.desc = "calls " + pkg.Name() + "." + funcDisplayName(fn) + ", which " + shortReason(fact.reason)
		}
	case pkg.Path() == "fmt" || pkg.Path() == "log":
		edge.allocates = true
		edge.desc = "calls " + pkg.Name() + "." + fn.Name() + " (fmt/log always allocate)"
	default:
		edge.allocates = true
		edge.desc = "calls " + pkg.Name() + "." + funcDisplayName(fn) + ", which is not on the known-clean list"
	}
	s.calls = append(s.calls, edge)
}

// checkCallArgs flags concrete-to-interface boxing at parameters and the
// argument-slice allocation of a non-spread variadic call.
func checkCallArgs(info *types.Info, addSite func(token.Pos, string, ...any), call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis.IsValid() {
				continue // spread: no new backing array at this call
			}
			pt = params.At(n - 1).Type().(*types.Slice).Elem()
		case i < n:
			pt = params.At(i).Type()
		default:
			continue
		}
		if at, ok := info.Types[arg]; ok {
			checkIfaceConv(addSite, arg.Pos(), pt, at.Type)
		}
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= n {
		addSite(call.Pos(), "variadic call packs its arguments into a new slice")
	}
}

// checkIfaceAssign flags assignments that box a concrete value into an
// interface-typed destination.
func checkIfaceAssign(info *types.Info, addSite func(token.Pos, string, ...any), lhs, rhs ast.Expr) {
	lt, ok := info.Types[lhs]
	if !ok {
		if id, isID := ast.Unparen(lhs).(*ast.Ident); isID {
			if obj := info.Defs[id]; obj != nil {
				lt.Type = obj.Type()
				ok = true
			}
		}
	}
	if !ok || lt.Type == nil {
		return
	}
	if rt, okr := info.Types[rhs]; okr {
		checkIfaceConv(addSite, rhs.Pos(), lt.Type, rt.Type)
	}
}

// checkIfaceReturn flags concrete values returned through interface
// result types.
func checkIfaceReturn(info *types.Info, addSite func(token.Pos, string, ...any), fn *ast.FuncDecl, ret *ast.ReturnStmt) {
	if fn.Type.Results == nil {
		return
	}
	sig, ok := info.Defs[fn.Name].(*types.Func)
	if !ok {
		return
	}
	results := sig.Type().(*types.Signature).Results()
	if results.Len() != len(ret.Results) {
		return // naked return or multi-value call: nothing concrete to box here
	}
	for i, e := range ret.Results {
		if et, ok := info.Types[e]; ok {
			checkIfaceConv(addSite, e.Pos(), results.At(i).Type(), et.Type)
		}
	}
}

// checkIfaceConv flags a concrete, non-pointer-shaped value converting
// into a non-nil interface type — the boxing allocation.
func checkIfaceConv(addSite func(token.Pos, string, ...any), pos token.Pos, dst, src types.Type) {
	if dst == nil || src == nil {
		return
	}
	if !types.IsInterface(dst) || types.IsInterface(src) {
		return
	}
	b, isBasic := src.Underlying().(*types.Basic)
	if isBasic && b.Info()&types.IsUntyped != 0 && b.Kind() != types.UntypedString {
		// Untyped constants (incl. nil) either stay constant or convert
		// to a basic type first; small constants use the runtime's
		// static box cache. Treat as clean.
		return
	}
	if _, isPtr := src.Underlying().(*types.Pointer); isPtr {
		return // pointers box without allocating
	}
	addSite(pos, "conversion of %s to interface allocates", src.String())
}

// convAllocates reports whether the explicit conversion dst(src) copies
// memory: string <-> []byte/[]rune, and rune/byte-slice to string.
func convAllocates(dst, src types.Type) bool {
	d, s := dst.Underlying(), src.Underlying()
	if isString(d) && !isString(s) {
		_, srcSlice := s.(*types.Slice)
		db, isBasic := s.(*types.Basic)
		return srcSlice || (isBasic && db.Info()&types.IsInteger != 0)
	}
	if ds, ok := d.(*types.Slice); ok && isString(s) {
		e, ok := ds.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune)
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// capturedVars lists the names of variables a function literal captures
// from its enclosing function (package-level objects excluded).
func capturedVars(info *types.Info, lit *ast.FuncLit) []string {
	var caps []string
	seen := map[*types.Var]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		// Declared outside the literal, but not at package scope.
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			if v.Pkg() != nil && v.Parent() != v.Pkg().Scope() {
				seen[v] = true
				caps = append(caps, v.Name())
			}
		}
		return true
	})
	return caps
}
