package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// The driver: Run loads the package graph with `go list -export -deps`,
// type-checks each module package from source against its
// dependencies' gc export data, and runs the suite over the packages in
// the order go list gives them (imports before importers), so that
// hotpath's verdicts on an upstream package are in the Session when a
// downstream package's pass reads them.

// listedPkg is the subset of `go list -json` output the driver needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Run analyzes the packages matching patterns (resolved by the go tool
// from dir, inside dir's module) and returns the file set and the
// findings: each package's position-sorted, in dependency order, then
// the reach check's. On an error it returns the findings so far. Only a
// package's GoFiles are loaded: the suite's contracts bind the shipped
// runtime, and test code stays free to allocate, range maps and read
// clocks — and reaches nothing. The reach check runs only when the
// loaded packages cover the whole module, since a partial load has no
// roots to judge by.
func Run(dir string, patterns []string) (*token.FileSet, []Diagnostic, error) {
	fset := token.NewFileSet()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, append([]string{"-export", "-deps"}, patterns...))
	if err != nil {
		return fset, nil, err
	}

	exportFile := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exportFile[p.ImportPath] = p.Export
		}
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f := exportFile[path]
		if f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	s := newSession()
	var diags []Diagnostic
	analyzed := map[string]bool{}
	module := ""
	for _, p := range pkgs {
		if p.Standard || p.Module == nil {
			continue
		}
		if p.Error != nil {
			return fset, diags, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		ds, err := analyzePackage(fset, imp, s, p)
		if err != nil {
			return fset, diags, fmt.Errorf("%s: %w", p.ImportPath, err)
		}
		diags = append(diags, ds...)
		analyzed[p.ImportPath], module = true, p.Module.Path
	}
	if module == "" {
		return fset, diags, nil
	}
	// The patterns' packages come last, so module is theirs.
	all, err := goList(dir, []string{"-find", module + "/..."})
	if err != nil {
		return fset, diags, err
	}
	for _, p := range all {
		if p.Module != nil && !analyzed[p.ImportPath] {
			return fset, diags, nil
		}
	}
	return fset, append(diags, s.Reach(fset)...), nil
}

// RunStandalone is Run printing the findings to out, one per line in
// file:line:col: check: message form. It returns the number of findings.
func RunStandalone(dir string, patterns []string, out io.Writer) (int, error) {
	fset, diags, err := Run(dir, patterns)
	for _, d := range diags {
		pos := "-"
		if d.Pos.IsValid() {
			pos = fset.Position(d.Pos).String()
		}
		fmt.Fprintf(out, "%s: %s: %s\n", pos, d.Check, d.Message)
	}
	return len(diags), err
}

// goList shells out to `go list -e -json` with args and decodes the
// package stream (with -deps, in dependency order: imports precede
// importers).
func goList(dir string, args []string) ([]*listedPkg, error) {
	args = append([]string{"list", "-e", "-json"}, args...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// analyzePackage type-checks one module package from source and runs the
// full suite over it.
func analyzePackage(fset *token.FileSet, imp types.Importer, s *Session, p *listedPkg) ([]Diagnostic, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return s.Analyze(fset, files, pkg, info, p.Module.Path), nil
}
