package analysis_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"flowsched/internal/analysis"
)

// runFixture runs the driver on patterns inside the fixture module at
// testdata/src/<module> (module "." is the fixtures module itself) and
// checks the findings against the // want comments of the files it
// loaded.
//
// A want comment expects one or more diagnostics on its own line, each
// matching a quoted regexp against "check: message":
//
//	s := make([]int, 4) // want `alloc: .*make allocates`
func runFixture(t *testing.T, module string, patterns ...string) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", module))
	if err != nil {
		t.Fatal(err)
	}
	fset, diags, err := analysis.Run(dir, patterns)
	if err != nil {
		t.Fatalf("flowschedvet %s in %s: %v", strings.Join(patterns, " "), dir, err)
	}
	checkWants(t, fset, dir, diags)
}

func TestHotPath(t *testing.T) {
	runFixture(t, ".", "./hotpathmod/hot")
}

// TestHotPathCrossPackage pins the cross-package verdicts: the
// allocation is two calls below the root and in a different package,
// which the driver analyzes first because hot2 imports it.
func TestHotPathCrossPackage(t *testing.T) {
	runFixture(t, ".", "./hotpathmod/hot2")
}

// TestGatedClock also pins that the driver reads GoFiles only:
// clocked_test.go reads the clock ungated, and is no finding.
func TestGatedClock(t *testing.T) {
	runFixture(t, ".", "./clocked", "./clockoff")
}

func TestAtomicField(t *testing.T) {
	runFixture(t, ".", "./atomics")
}

func TestDeterminism(t *testing.T) {
	runFixture(t, ".", "./determ")
}

// TestReach runs the whole-module reach check over a fixture module with
// one binary: unreached and bare-marked declarations are findings, the
// root package's exports and initialised vars among them, a mark on code
// the binary reaches is one, and marked declarations and packages reach
// what they call.
func TestReach(t *testing.T) {
	runFixture(t, "reachmod", "./...")
}

// TestReachNeedsWholeModule: a pattern narrower than the module skips the
// reach check, which would otherwise find every declaration of
// internal/matching unreached, since no main is loaded.
func TestReachNeedsWholeModule(t *testing.T) {
	fset, diags, err := analysis.Run(".", []string{"flowsched/internal/matching"})
	if err != nil || len(diags) != 0 {
		logDiags(t, fset, diags)
		t.Fatalf("flowschedvet on internal/matching: %d findings, err %v", len(diags), err)
	}
}

// TestRepoClean is the dogfood gate as a tier-1 test: the whole module
// must analyze clean, so a hot-path regression fails go test ./... even
// before CI's dedicated flowschedvet step runs.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	fset, diags, err := analysis.Run(".", []string{"flowsched/..."})
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	if len(diags) != 0 {
		logDiags(t, fset, diags)
		t.Fatalf("flowschedvet reports %d findings on the repository (see log)", len(diags))
	}
}

func logDiags(t *testing.T, fset *token.FileSet, diags []analysis.Diagnostic) {
	t.Helper()
	for _, d := range diags {
		t.Logf("%s: %s: %s", fset.Position(d.Pos), d.Check, d.Message)
	}
}

// want is one expectation: a diagnostic on file:line matching re.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("//\\s*want\\s+(.*)$")

// checkWants matches diagnostics against the want comments of the files
// under dir that the driver loaded: every want must be hit, every
// diagnostic must be wanted.
func checkWants(t *testing.T, fset *token.FileSet, dir string, diags []analysis.Diagnostic) {
	t.Helper()
	// The file set also holds the files export data names, an analyzed
	// package's among them: take each file under dir once.
	loaded := map[string]bool{}
	fset.Iterate(func(f *token.File) bool {
		if strings.HasPrefix(f.Name(), dir+string(filepath.Separator)) {
			loaded[f.Name()] = true
		}
		return true
	})
	var wants []*want
	for name := range loaded {
		wfset := token.NewFileSet()
		f, err := parser.ParseFile(wfset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := wfset.Position(c.Slash)
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
			t.Errorf("%s: unexpected diagnostic: %s", pos, text)
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
