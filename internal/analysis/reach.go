package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Reach checks that production code is what a binary reaches. Its pass
// only records the package's declarations and what each refers to; the
// verdict comes from Session.Reach once the whole module is in.
//
// Roots are main in every main package, init functions and
// //flowsched:testonly marks; a library's exports and an initialised
// package-level var are no root, so a facade name no binary calls is a
// finding like any other. An edge is any reference inside a
// declaration, keyed by objectKey, because an object imported from
// export data is not the defining package's Defs object. A reached named
// type reaches all its methods, so interface dispatch needs no analysis
// and a method is never a finding. Any other package-level declaration
// of a non-main package is a finding unless it or its package clause
// carries //flowsched:testonly <why>, which makes it a root; a mark on
// code the other roots reach is a finding too.
var Reach = &Analyzer{
	Name: "reach",
	Doc:  "report package-level declarations no binary reaches (whole module only; //flowsched:testonly <why> marks test support)",
	Run:  runReach,
}

// reachGraph accumulates the module's declarations across passes.
type reachGraph struct {
	edges map[string][]string
	roots []string
	decls []reachDecl
	// marks maps a testonly mark's position to the keys it marks.
	marks map[token.Pos][]string
}

// reachDecl is a package-level declaration that may be a finding.
type reachDecl struct {
	key, name string
	pos       token.Pos
}

func newReachGraph() *reachGraph {
	return &reachGraph{edges: map[string][]string{}, marks: map[token.Pos][]string{}}
}

func runReach(pass *Pass) {
	g := pass.reach
	isMain := pass.Pkg.Name() == "main"
	var pkgMark token.Pos
	for _, f := range pass.Files {
		if pos, ok := pass.Dirs.testonly[f]; ok {
			pkgMark = pos
		}
	}

	// declare adds obj, declared by n, with the references inside n.
	declare := func(obj types.Object, n, decl ast.Node, root, candidate bool) string {
		key := objectKey(obj)
		g.edges[key] = append(g.edges[key], typeKey(obj.Type()))
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if k := refKey(pass.TypesInfo.Uses[id]); k != "" {
					g.edges[key] = append(g.edges[key], k)
				}
			}
			return true
		})
		if pos, ok := pass.Dirs.testonly[decl]; ok {
			g.marks[pos] = append(g.marks[pos], key)
		}
		if root {
			g.roots = append(g.roots, key)
		} else if candidate && !isMain && obj.Name() != "_" {
			g.decls = append(g.decls, reachDecl{key, pass.Pkg.Name() + "." + obj.Name(), obj.Pos()})
			if pkgMark.IsValid() {
				g.marks[pkgMark] = append(g.marks[pkgMark], key)
			}
		}
		return key
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				fn := pass.TypesInfo.Defs[decl.Name].(*types.Func)
				if recv := fn.Signature().Recv(); recv != nil {
					tk := typeKey(recv.Type())
					g.edges[tk] = append(g.edges[tk], declare(fn, decl, decl, false, false))
				} else {
					declare(fn, decl, decl, fn.Name() == "init" || (isMain && fn.Name() == "main"), true)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(pass.TypesInfo.Defs[spec.Name], spec, decl, false, true)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(pass.TypesInfo.Defs[id], spec, decl, false, true)
						}
					}
				}
			}
		}
	}
}

// refKey keys a reference to a package-level object or a method; any
// other object (a local, a field, a parameter) keys to "".
func refKey(obj types.Object) string {
	switch o := obj.(type) {
	case nil:
		return ""
	case *types.Func:
		if obj = o.Origin(); o.Signature().Recv() != nil {
			return objectKey(obj)
		}
	case *types.Var:
		obj = o.Origin()
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return objectKey(obj)
}

// typeKey keys the named type t denotes, through one pointer, or is "".
func typeKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return objectKey(n.Obj())
	}
	return ""
}

// findings returns the verdict over every package added so far.
func (g *reachGraph) findings() []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{Pos: pos, Check: "reach", Message: fmt.Sprintf(format, args...)})
	}
	reached := map[string]bool{}
	g.walk(reached, g.roots)
	var marked []string
	for pos, keys := range g.marks {
		if slices.ContainsFunc(keys, func(k string) bool { return reached[k] }) {
			report(pos, "//flowsched:testonly on code a binary already reaches: drop the mark")
		}
		marked = append(marked, keys...)
	}
	g.walk(reached, marked)
	for _, d := range g.decls {
		if !reached[d.key] {
			report(d.pos, "%s is reached by no binary: delete it, move it into its tests, or mark it //flowsched:testonly <why>", d.name)
		}
	}
	return diags
}

// walk adds everything reachable from roots to reached.
func (g *reachGraph) walk(reached map[string]bool, roots []string) {
	stack := slices.Clone(roots)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !reached[k] {
			reached[k] = true
			stack = append(stack, g.edges[k]...)
		}
	}
}
