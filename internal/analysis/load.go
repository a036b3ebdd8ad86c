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

// Standalone driver: flowschedvet invoked with package patterns loads
// the package graph with `go list -export -deps`, type-checks each
// module package from source against its dependencies' gc export data,
// and runs the suite in dependency order so that object facts published
// by an upstream pass are available downstream.

// listedPkg is the subset of `go list -json` output the driver needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	ImportMap  map[string]string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// RunStandalone analyzes the packages matching patterns (resolved by the
// go tool from dir), printing findings to out in file:line:col form.
// It returns the number of findings. Only a package's GoFiles are
// loaded: the suite's contracts bind the shipped runtime, and test code
// stays free to allocate, range maps and read clocks — and reaches
// nothing. The reach check runs only when the loaded packages cover
// the whole module, since a partial load has no roots to judge by.
func RunStandalone(dir string, patterns []string, out io.Writer) (int, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, append([]string{"-export", "-deps"}, patterns...))
	if err != nil {
		return 0, err
	}

	exportFile := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exportFile[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	s := NewSession()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f := exportFile[path]
		if f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	total := 0
	analyzed := map[string]bool{}
	module := ""
	for _, p := range pkgs {
		if p.Standard || p.Module == nil || p.Error != nil {
			if p.Error != nil && p.Module != nil {
				return total, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
			}
			continue
		}
		n, err := analyzePackage(fset, imp, s, p, out)
		if err != nil {
			return total, fmt.Errorf("%s: %w", p.ImportPath, err)
		}
		total += n
		analyzed[p.ImportPath], module = true, p.Module.Path
	}
	if module == "" {
		return total, nil
	}
	// The patterns' packages come last, so module is theirs.
	all, err := goList(dir, []string{"-find", module + "/..."})
	if err != nil {
		return total, err
	}
	for _, p := range all {
		if p.Module != nil && !analyzed[p.ImportPath] {
			return total, nil
		}
	}
	diags := s.Reach(fset)
	printDiags(out, fset, diags)
	return total + len(diags), nil
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
// full suite over it, printing findings to out.
func analyzePackage(fset *token.FileSet, imp types.Importer, s *Session, p *listedPkg, out io.Writer) (int, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(p.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return 0, err
		}
		files = append(files, f)
	}
	info := newTypesInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return 0, err
	}
	diags := s.Analyze(fset, files, pkg, info, p.Module.Path)
	printDiags(out, fset, diags)
	return len(diags), nil
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// printDiags writes findings as file:line:col: analyzer-tagged lines.
func printDiags(out io.Writer, fset *token.FileSet, diags []Diagnostic) {
	for _, d := range diags {
		pos := "-"
		if d.Pos.IsValid() {
			pos = fset.Position(d.Pos).String()
		}
		fmt.Fprintf(out, "%s: %s: %s\n", pos, d.Check, d.Message)
	}
}
