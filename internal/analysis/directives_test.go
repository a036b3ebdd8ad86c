package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

const directivesSrc = `// Package p is a fixture.
//
//flowsched:deterministic
package p

//flowsched:hotpath
func Hot() {
	//flowsched:allow alloc: line-scoped scratch growth
	x := 1
	_ = x
}

//flowsched:allow rand: whole-function exemption
func Draw() int { return 4 }

func Cold() {}

//flowsched:allow bogus: not a real check
//flowsched:allow maprange
//flowsched:frobnicate
var x int
`

func parseDirectives(t *testing.T) (*token.FileSet, *ast.File, *Directives) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directivesSrc, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, NewDirectives(fset, []*ast.File{f})
}

func TestDirectiveMarks(t *testing.T) {
	_, _, d := parseDirectives(t)
	if !d.HasMark("deterministic") {
		t.Error("deterministic mark not parsed")
	}
	if d.HasMark("clockgated") {
		t.Error("clockgated mark reported without a directive")
	}
}

func TestDirectiveHotPathRoots(t *testing.T) {
	_, f, d := parseDirectives(t)
	roots := d.HotPathRoots()
	if len(roots) != 1 || roots[0].Name.Name != "Hot" {
		t.Fatalf("roots = %v, want exactly Hot", roots)
	}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "Cold" && d.IsHotPath(fn) {
			t.Error("Cold wrongly marked hotpath")
		}
	}
}

func TestDirectiveAllowExtents(t *testing.T) {
	fset, f, d := parseDirectives(t)
	posOf := func(line int) token.Pos {
		tf := fset.File(f.Pos())
		return tf.LineStart(line)
	}
	allowLine := lineContaining(t, directivesSrc, "allow alloc: line-scoped")
	if _, ok := d.Allowed("alloc", posOf(allowLine)); !ok {
		t.Error("line allow does not cover its own line")
	}
	if _, ok := d.Allowed("alloc", posOf(allowLine+1)); !ok {
		t.Error("line allow does not cover the following line")
	}
	if _, ok := d.Allowed("alloc", posOf(allowLine+2)); ok {
		t.Error("line allow leaks past the following line")
	}
	if _, ok := d.Allowed("rand", posOf(allowLine)); ok {
		t.Error("allow for one check suppresses another")
	}
	// The function-doc allow covers the whole of Draw.
	drawLine := lineContaining(t, directivesSrc, "func Draw")
	if why, ok := d.Allowed("rand", posOf(drawLine)); !ok || !strings.Contains(why, "whole-function") {
		t.Errorf("function-doc allow missing: %q, %v", why, ok)
	}
}

func TestDirectiveMalformed(t *testing.T) {
	_, _, d := parseDirectives(t)
	var msgs []string
	for _, m := range d.Malformed() {
		msgs = append(msgs, m.Message)
	}
	if len(msgs) != 3 {
		t.Fatalf("malformed = %d (%v), want 3", len(msgs), msgs)
	}
	for i, wantSub := range []string{"known check", "justification", "unknown"} {
		if !strings.Contains(msgs[i], wantSub) {
			t.Errorf("malformed[%d] = %q, want substring %q", i, msgs[i], wantSub)
		}
	}
}

func lineContaining(t *testing.T, src, sub string) int {
	t.Helper()
	idx := strings.Index(src, sub)
	if idx < 0 {
		t.Fatalf("fixture lacks %q", sub)
	}
	return 1 + strings.Count(src[:idx], "\n")
}

// allowBudget is the number of //flowsched:allow directives in the
// module's non-test code. Each one is a hot-path or determinism
// exception a reviewer has to take on trust, so the number may only be
// lowered: a change that needs a new allow retires an old one.
const allowBudget = 3

// testonlyBudget is the number of //flowsched:testonly marks in the
// module's non-test code. Each one keeps code no binary reaches, so it
// may only be lowered too: test support with one user moves into that
// user's _test.go file instead.
const testonlyBudget = 5

// moduleDirectives parses the directives (not mentions of the syntax in
// prose) across every non-test Go file of the module, analyzer fixtures
// excluded.
func moduleDirectives(t *testing.T) *Directives {
	t.Helper()
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			// Fixtures, dot directories, and the benchmark's build output.
			if n := e.Name(); n == "testdata" || (n != ".." && strings.HasPrefix(n, ".")) ||
				path == filepath.Join(root, "benchmark", "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewDirectives(fset, files)
}

func TestAllowBudget(t *testing.T) {
	d := moduleDirectives(t)
	if got := len(d.allows); got > allowBudget {
		for _, a := range d.allows {
			t.Logf("%s:%d: allow %s: %s", a.file, a.line, a.check, a.why)
		}
		t.Fatalf("%d //flowsched:allow directives in non-test code, budget is %d", got, allowBudget)
	} else if got < allowBudget {
		t.Fatalf("%d //flowsched:allow directives in non-test code: lower allowBudget from %d to match", got, allowBudget)
	}
}

// TestAllowsNameTheirTest requires every //flowsched:allow in non-test
// code to name, in its justification, a test its package declares: the
// test that fails if the allowance's bound breaks. An allow that names
// none, or a test that does not exist, is taken on trust alone.
func TestAllowsNameTheirTest(t *testing.T) {
	d := moduleDirectives(t)
	testName := regexp.MustCompile(`\bTest[A-Z0-9_]\w*`)
	declared := map[string]map[string]bool{} // package directory -> its tests
	for _, a := range d.allows {
		file, line := a.file, a.line
		if a.wholeRange {
			pos := d.fset.Position(a.lo)
			file, line = pos.Filename, pos.Line
		}
		dir := filepath.Dir(file)
		if declared[dir] == nil {
			declared[dir] = packageTests(t, dir)
		}
		named := testName.FindAllString(a.why, -1)
		if !slices.ContainsFunc(named, func(n string) bool { return declared[dir][n] }) {
			t.Errorf("%s:%d: allow %s names no test of its package (named %v): %s",
				file, line, a.check, named, a.why)
		}
	}
}

// packageTests returns the names of the Test functions the _test.go
// files in dir declare.
func packageTests(t *testing.T, dir string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	tests := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				tests[fn.Name.Name] = true
			}
		}
	}
	return tests
}

func TestTestonlyBudget(t *testing.T) {
	d := moduleDirectives(t)
	if got := len(d.testonly); got > testonlyBudget {
		for _, pos := range d.testonly {
			t.Logf("%s: testonly mark", d.fset.Position(pos))
		}
		t.Fatalf("%d //flowsched:testonly marks in non-test code, budget is %d", got, testonlyBudget)
	} else if got < testonlyBudget {
		t.Fatalf("%d //flowsched:testonly marks in non-test code: lower testonlyBudget from %d to match", got, testonlyBudget)
	}
}
