// Command flowschedvet runs the flowsched invariant suite — hotpath,
// gatedclock, atomicfield, determinism and reach (see internal/analysis)
// — over Go packages loaded with `go list`:
//
//	flowschedvet ./...
//
// atomicfield holds shared words to the typed atomics: a sync/atomic
// package-level call, or a typed atomic field copied by value, is a
// finding.
//
// reach judges the whole module at once, so it runs only when the
// packages loaded cover every package of the module; a narrower
// pattern runs the other four.
//
// It is the same driver, over the same packages, that `go test` runs as
// internal/analysis's TestRepoClean, and the one its analyzer fixture
// tests run on the fixture modules under internal/analysis/testdata/src.
//
// Exit status: 0 clean, 1 internal error, 2 findings.
package main

import (
	"flag"
	"fmt"
	"os"

	"flowsched/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: flowschedvet [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.Suite() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	findings, err := analysis.RunStandalone(".", flag.Args(), os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flowschedvet: %v\n", err)
		os.Exit(1)
	}
	if findings > 0 {
		os.Exit(2)
	}
}
