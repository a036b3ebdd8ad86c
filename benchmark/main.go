// Command benchmark is the repository's benchmark: seven workloads from
// HTTP ingest to LP rounding, measured end to end and layer by layer. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
// One run measures one workload:
//
//	benchmark --workload drain_deep --seed 1 --seconds 10 --trace 0
//
// and prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics: every end-to-end metric
// with --trace 0, every per-layer metric with --trace 1. Without
// --workload it runs the whole suite in fresh child processes (see
// suite.go), and with -compare it compares two suite results.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload to run (empty: the whole suite)")
	flag.Int64Var(&opt.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&opt.seconds, "seconds", 10, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, no recorder, no decorators; 1: per-layer metrics from a traced run")
	flag.StringVar(&opt.flowschedd, "flowschedd", os.Getenv("FLOWSCHEDD"), "flowschedd binary for daemon_ingest (default $FLOWSCHEDD; run.sh builds and sets it)")
	flag.StringVar(&opt.outDir, "out", "benchmark/out", "directory for trace files and the suite's result.json")
	so := suiteOptions{}
	flag.IntVar(&so.repeats, "repeats", 7, "suite: timed repeats per workload (never below 5 for a result that is kept)")
	flag.BoolVar(&so.varySeed, "vary-seed", false, "suite: repeat i runs seed+i, the contract's steadiness check; default repeats one seed")
	doCompare := flag.Bool("compare", false, "compare two suite results: -compare A.json B.json (A is the base); exits 1 on any worse row")
	printContract := flag.Bool("contract", false, "print BENCHMARK.json as this package defines it")
	smoke := flag.Bool("smoke", false, "run every workload once at 1/64 scale, both trace modes, daemon served in-process")
	flag.Parse()
	opt.trace = trace != 0
	opt.log = os.Stderr
	opt.scale = 1

	switch {
	case *printContract:
		os.Stdout.Write(contract())
		return
	case *doCompare:
		if flag.NArg() != 2 {
			exit(2, "-compare needs two result files: base A, then B")
		}
		worse, err := compare(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			exit(2, err)
		}
		if worse > 0 {
			exit(1, worse, "metric(s) worse than the base by more than their bound")
		}
		return
	case *smoke:
		if err := runSmoke(opt.seed, os.Stdout); err != nil {
			exit(1, err)
		}
		return
	case opt.workload == "":
		if opt.flowschedd == "" {
			exit(2, "the suite needs the flowschedd binary: run through benchmark/run.sh or pass -flowschedd")
		}
		so.options = opt
		if _, err := runSuite(so, os.Stdout); err != nil {
			exit(1, err)
		}
		return
	}
	if w := workloadByName(opt.workload); w != nil && w.kind == kindDaemon && opt.flowschedd == "" {
		exit(2, "daemon_ingest needs the flowschedd binary: run through benchmark/run.sh or pass -flowschedd")
	}
	res, err := execute(opt)
	if err != nil {
		exit(1, err)
	}
	fmt.Println(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func exit(code int, msg ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"benchmark:"}, msg...)...)
	os.Exit(code)
}

// runSmoke runs all seven workloads once at 1/64 scale in this process,
// end to end and traced, with the daemon served through httptest: every
// code path of the benchmark in seconds, for a quick
// look after a change.
func runSmoke(seed int64, out io.Writer) error {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := execute(options{workload: w.name, seed: seed, trace: trace, scale: 64, log: out})
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s (trace %v): %d of %d operations failed their checks", w.name, trace, res.Failed, res.Attempted)
			}
		}
	}
	return nil
}
