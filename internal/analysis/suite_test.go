package analysis_test

import (
	"io"
	"path/filepath"
	"testing"

	"flowsched/internal/analysis"
	"flowsched/internal/analysis/analysistest"
)

func testdata(t *testing.T) string {
	t.Helper()
	td, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return td
}

func TestHotPath(t *testing.T) {
	analysistest.Run(t, testdata(t), "hotpathmod", "hotpathmod/hot")
}

// TestHotPathCrossPackage pins fact propagation: the allocation is two
// calls below the root and in a different package; dep is analyzed
// first, exactly as both drivers order real packages.
func TestHotPathCrossPackage(t *testing.T) {
	analysistest.Run(t, testdata(t), "hotpathmod", "hotpathmod/dep", "hotpathmod/hot2")
}

func TestGatedClock(t *testing.T) {
	analysistest.Run(t, testdata(t), "clocked", "clocked", "clockoff")
}

func TestAtomicField(t *testing.T) {
	analysistest.Run(t, testdata(t), "atomics", "atomics")
}

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, testdata(t), "determ", "determ")
}

// TestReach runs the whole-module reach check over a fixture module with
// one binary: unreached and bare-marked declarations are findings, a
// mark on code the binary reaches is one, and marked declarations and
// packages reach what they call.
func TestReach(t *testing.T) {
	analysistest.RunModule(t, testdata(t), "reachmod", "reachmod/lib", "reachmod/support", "reachmod/cmd/tool")
}

// TestReachNeedsWholeModule: a pattern narrower than the module skips the
// reach check, which would otherwise find every declaration of
// internal/matching unreached, since no main is loaded.
func TestReachNeedsWholeModule(t *testing.T) {
	findings, err := analysis.RunStandalone(".", []string{"flowsched/internal/matching"}, testWriter{t})
	if err != nil || findings != 0 {
		t.Fatalf("flowschedvet on internal/matching: %d findings, err %v", findings, err)
	}
}

// TestRepoClean is the dogfood gate as a tier-1 test: the whole module
// must analyze clean, so a hot-path regression fails go test ./... even
// before CI's dedicated flowschedvet step runs.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	findings, err := analysis.RunStandalone(".", []string{"flowsched/..."}, io.Discard)
	if err != nil {
		t.Fatalf("standalone driver: %v", err)
	}
	if findings != 0 {
		n, _ := analysis.RunStandalone(".", []string{"flowsched/..."}, testWriter{t})
		t.Fatalf("flowschedvet reports %d findings on the repository (see log)", n)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}
