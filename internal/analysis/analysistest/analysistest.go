// Package analysistest runs the flowschedvet suite over fixture
// packages under a testdata/src tree and checks reported diagnostics
// against // want comments — the same convention as
// golang.org/x/tools/go/analysis/analysistest, rebuilt on the standard
// library because this repository carries no module dependencies.
//
// A want comment expects one or more diagnostics on its own line, each
// matching a quoted regexp against "check: message":
//
//	s := make([]int, 4) // want `alloc: .*make allocates`
//
// Fixture packages live at <testdata>/src/<importpath>/. They may import
// each other (loaded from source, analyzed in the order given to Run so
// facts flow dependency-first) and the standard library (loaded from the
// build cache's export data via go list -export).
//
//flowsched:testonly the analyzer fixture tests of internal/analysis (suite_test.go) drive the suite through it
package analysistest

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
	"regexp"
	"strconv"
	"strings"
	"testing"

	"flowsched/internal/analysis"
)

// Run analyzes each fixture package (paths relative to testdata/src, in
// order — list dependencies before dependents) and checks their // want
// expectations.
func Run(t *testing.T, testdata, module string, pkgs ...string) {
	t.Helper()
	run(t, testdata, module, false, pkgs)
}

// RunModule is Run over a whole fixture module: pkgs are every package
// of module, and the want expectations cover the reach check's findings
// as well.
func RunModule(t *testing.T, testdata, module string, pkgs ...string) {
	t.Helper()
	run(t, testdata, module, true, pkgs)
}

func run(t *testing.T, testdata, module string, reach bool, pkgs []string) {
	t.Helper()
	ld := &loader{
		testdata:   testdata,
		fset:       token.NewFileSet(),
		session:    analysis.NewSession(),
		loaded:     map[string]*fixturePkg{},
		exportFile: map[string]string{},
	}
	ld.gc = importer.ForCompiler(ld.fset, "gc", func(path string) (io.ReadCloser, error) {
		f := ld.exportFile[path]
		if f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	var files []*ast.File
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		fp, err := ld.load(pkg)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pkg, err)
		}
		files = append(files, fp.files...)
		diags = append(diags, ld.session.Analyze(ld.fset, fp.files, fp.pkg, fp.info, module)...)
	}
	if reach {
		diags = append(diags, ld.session.Reach(ld.fset)...)
	}
	checkWants(t, ld.fset, module, files, diags)
}

type fixturePkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type loader struct {
	testdata   string
	fset       *token.FileSet
	session    *analysis.Session
	loaded     map[string]*fixturePkg
	exportFile map[string]string
	gc         types.Importer
}

// Import makes the loader a types.Importer: fixture-tree packages load
// from source, everything else from gc export data.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(ld.testdata, "src", path); isDir(dir) {
		fp, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return fp.pkg, nil
	}
	if err := ld.ensureExport(path); err != nil {
		return nil, err
	}
	return ld.gc.Import(path)
}

func (ld *loader) load(path string) (*fixturePkg, error) {
	if fp, ok := ld.loaded[path]; ok {
		return fp, nil
	}
	dir := filepath.Join(ld.testdata, "src", path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, err
	}
	fp := &fixturePkg{files: files, pkg: pkg, info: info}
	ld.loaded[path] = fp
	return fp, nil
}

// ensureExport resolves a standard-library import to its export-data
// file via go list -export, pulling transitive deps in the same call.
func (ld *loader) ensureExport(path string) error {
	if ld.exportFile[path] != "" {
		return nil
	}
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export", path)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go list -export %s: %v\n%s", path, err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err != nil {
			return err
		}
		if p.Export != "" {
			ld.exportFile[p.ImportPath] = p.Export
		}
	}
	return nil
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// want is one expectation: a diagnostic on file:line matching re.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("//\\s*want\\s+(.*)$")

// checkWants matches diagnostics against the fixture's want comments:
// every want must be hit, every diagnostic must be wanted.
func checkWants(t *testing.T, fset *token.FileSet, pkg string, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Slash)
				for _, pat := range splitPatterns(m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		text := d.Check + ": " + d.Message
		hit := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(text) {
				w.matched, hit = true, true
				break
			}
		}
		if !hit {
			t.Errorf("%s: unexpected diagnostic in %s: %s", pos, pkg, text)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// splitPatterns parses the quoted regexps of a want comment: "…" or
// `…`, space-separated.
func splitPatterns(s string) []string {
	var pats []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
				end++
			}
			if end >= len(s) {
				return append(pats, s) // unterminated: surface as a bad pattern
			}
			if unq, err := strconv.Unquote(s[:end+1]); err == nil {
				pats = append(pats, unq)
			}
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return append(pats, s)
			}
			pats = append(pats, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			return append(pats, s)
		}
	}
	return pats
}
