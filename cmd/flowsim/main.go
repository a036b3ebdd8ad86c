// Command flowsim is the repository's front door to the paper's algorithms.
// Its first argument picks a subcommand (`flowsim CMD -h` lists its flags);
// flags alone run the simulator.
//
//	flowsim paper -fig all -out results                   the figures and tables (internal/experiments)
//	flowsim paper -fig 7 -ports 150 -lpT '' -trials 3     ... at paper scale, heuristics only
//	flowsim art -ports 6 -M 6 -T 6 -c 2                   offline FS-ART, Theorem 1
//	flowsim art -in instance.json -c 1 -schedule
//	flowsim mrt -ports 6 -M 8 -T 6 -gantt                 offline FS-MRT, Theorem 3
//	flowsim mrt -in instance.json -deadlines 4,4,7,9      ... the deadline model of Remark 4.2
//	flowsim gen -kind poisson -ports 150 -M 300 -T 20 -o inst.json
//	flowsim gen -kind hotspot -format trace -ports 32 -M 64 -hot 0.6
//	flowsim gen -kind rtt -teachers 3 -classes 4          (kinds: see flowsim gen -h)
//
// Every mode that reads an instance takes it the same way (loadInstance):
// -in JSON, else -trace CSV where the mode has that flag, else a seeded
// Poisson draw.
//
// The simulator of Section 5.2 generates (or loads) instances and runs
// scheduling heuristics through the scenario engine, so every reported
// number comes from a schedule the verify oracle accepted:
//
//	flowsim -ports 150 -M 300 -T 20 -policy MaxWeight -trials 10
//	flowsim -in instance.json -policy MinRTime
//	flowsim -ports 32 -M 64 -T 50 -policy all -srpt
//
// `flowsim stream` runs the internal/stream runtime on an unbounded
// arrival process instead of a finite instance: flows arrive Poisson(M)
// per round (optionally with bounded-Pareto sizes, or replayed from
// -trace), pass through admission control, and drain under an incremental
// policy with sliding-window metrics and optional spot-check verification.
//
// With -shards K the runtime partitions the input ports across K shards,
// which take turns each round, oldest first, on one goroutine; the
// pending flows stay in one store. K > 1 changes the schedule (native
// policies only), not the parallelism.
// -policy names the paper's heuristics, which run at shards=1, or a native
// policy — RoundRobin, OldestFirst (age-aware oldest-head-first, the
// paper's MinRTime discipline at incremental cost), WeightedISLIP
// (queue-age-weighted request/grant/accept), and StreamFIFO — which run
// sharded; stream's -policy all drains the native ones:
//
//	flowsim stream -flows 1000000 -ports 150 -M 300 -policy OldestFirst
//	flowsim stream -flows 1000000 -ports 150 -M 300 -policy WeightedISLIP -shards 4
//	flowsim stream -flows 200000 -alpha 1.3 -dmax 8 -policy MaxWeight -verifyevery 64
//	flowsim stream -flows 500000 -ports 64 -M 128 -policy all
//	flowsim stream -flows 200000 -maxpending 1024 -admit drop -policy RoundRobin
//	flowsim stream -flows 200000 -policy OldestFirst -roundlog rounds.jsonl
//
// -roundlog attaches the internal/obs flight recorder to the drain and
// writes its last rounds (counts plus per-phase timings) as JSONL; a
// -policy all sweep suffixes the file with each policy name.
//
// Checkpoint/restore: -checkpoint FILE persists quiescent runtime
// snapshots (atomic, CRC-sealed) every -checkpointrounds rounds — or
// once at the end of the drain when the cadence is zero — and
// -restore FILE resumes a drain from one. With the same seed, trace, and
// flags, the resumed drain replays the unconsumed arrival suffix
// deterministically, so a run killed mid-drain and restored finishes
// with the same accounting an uninterrupted run reports:
//
//	flowsim stream -policy StreamFIFO -flows 200000 -checkpoint run.ckpt -checkpointrounds 500
//	flowsim stream -policy StreamFIFO -flows 200000 -restore run.ckpt
//
// A restore adopts the checkpoint's policy (when -policy is left at
// "all") and its shards/maxpending/admit/deadline unless the matching
// flag is given explicitly; corrupt or truncated checkpoint files are
// refused with a typed error before anything runs.
//
// With `flowsim stream -policy all` every native policy drains
// sequentially over identical arrivals (same seed or trace). With -trace,
// -flows caps the replay only when set explicitly; by default traces
// drain fully. -admit selects the admission behaviour at the MaxPending
// limit: lossless backpressure (default), drop (shed arrivals), or
// deadline (expire flows older than -deadline rounds).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"flowsched/internal/core"
	"flowsched/internal/engine"
	"flowsched/internal/stats"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

func main() { os.Exit(dispatch(os.Args[1:], os.Stderr)) }

// command declares a mode's flags on fs and returns what runs it once they
// are parsed.
type command func(fs *flag.FlagSet) (run func() error)

// commands are the subcommands, by first argument.
var commands = map[string]command{"art": art, "mrt": mrt, "gen": gen, "paper": paper, "stream": streamCmd}

// usageError is a mistake on the command line that the flag package does
// not catch itself: exit status 2, as for one it does.
type usageError struct{ error }

// atLeastOne is the usage error for a size flag below 1, which would
// otherwise reach a generator or a make as a panic or an empty table.
func atLeastOne[T int | int64](flag string, v T) error {
	if v < 1 {
		return usageError{fmt.Errorf("-%s must be at least 1, got %d", flag, v)}
	}
	return nil
}

// dispatch runs the subcommand args[0] names, or the simulator when args
// start with a flag, and returns the exit status. Results go to standard
// output, everything else to stderr.
func dispatch(args []string, stderr io.Writer) int {
	name, cmd := "flowsim", command(simulate)
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name = "flowsim " + args[0]
		if cmd = commands[args[0]]; cmd == nil {
			fmt.Fprintf(stderr, "flowsim: unknown command %q (commands: art, gen, mrt, paper, stream; flags alone run the simulator)\n", args[0])
			return 2
		}
		args = args[1:]
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	run := cmd(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set has said why
	}
	err := run()
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	if errors.As(err, &usageError{}) {
		return 2
	}
	return 1
}

// loadInstance is how every mode gets an instance: the JSON file inFile,
// else the CSV trace replayed onto a cfg.Ports switch of capacity cfg.Cap,
// else one draw of cfg from seed.
func loadInstance(inFile, trace string, cfg workload.PoissonConfig, seed int64) (*switchnet.Instance, error) {
	switch {
	case inFile != "":
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return switchnet.ReadInstance(f)
	case cfg.Ports < 1:
		return nil, atLeastOne("ports", cfg.Ports)
	case trace != "":
		f, err := os.Open(trace)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.ReadTrace(f, switchnet.NewSwitch(cfg.Ports, cfg.Ports, cfg.Cap))
	}
	return cfg.Generate(rand.New(rand.NewSource(seed))), nil
}

// simulate is flowsim without a subcommand: the online simulator.
func simulate(fs *flag.FlagSet) func() error {
	var (
		ports   = fs.Int("ports", 150, "switch size m")
		mFlag   = fs.Float64("M", 150, "mean flow arrivals per round")
		tFlag   = fs.Int("T", 20, "arrival rounds")
		policy  = fs.String("policy", "all", fmt.Sprintf("one of %v, or all", stream.AllNames()))
		trials  = fs.Int("trials", 10, "number of random trials")
		seed    = fs.Int64("seed", 1, "base RNG seed")
		inFile  = fs.String("in", "", "load instance JSON instead of generating")
		trace   = fs.String("trace", "", "load a CSV flow trace (release,in,out,demand) onto a -ports switch")
		srpt    = fs.Bool("srpt", false, "also print the per-port SRPT lower bound")
		demands = fs.Int("dmax", 1, "max flow demand (capacity scales to match)")
		workers = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	)
	usage := fs.Usage
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "Subcommands (flowsim CMD -h): art, gen, mrt, paper, stream. Without one:")
		usage()
	}
	return func() error {
		if err := atLeastOne("dmax", *demands); err != nil {
			return err
		}
		pols := stream.AllNames()
		if *policy != "all" {
			if stream.ByName(*policy) == nil {
				return usageError{fmt.Errorf("unknown policy %q", *policy)}
			}
			pols = []string{*policy}
		}

		if err := atLeastOne("trials", *trials); err != nil {
			return err
		}
		// A loaded instance is the one trial; otherwise trial tr is the
		// Poisson draw of seed+tr. Policies crossed with trials run on the
		// engine's pool, so every policy judges the same instances.
		insts := make([]*switchnet.Instance, *trials)
		if *inFile != "" || *trace != "" {
			insts = insts[:1]
		}
		cfg := workload.PoissonConfig{M: *mFlag, T: *tFlag, Ports: *ports, Cap: *demands, MaxDemand: *demands}
		for tr := range insts {
			var err error
			if insts[tr], err = loadInstance(*inFile, *trace, cfg, *seed+int64(tr)); err != nil {
				return err
			}
		}
		var scenarios []engine.Scenario
		for _, pol := range pols {
			for _, inst := range insts {
				scenarios = append(scenarios, engine.Scenario{
					Workload: engine.FixedGen{Inst: inst},
					Solver:   engine.PolicySolver{Policy: pol},
				})
			}
		}
		verdicts := engine.Run(scenarios, engine.Options{Workers: *workers})

		fmt.Printf("%-10s %10s %10s %10s %8s %9s\n", "policy", "avgRT", "maxRT", "rounds", "n", "verified")
		vi := 0
		for _, pol := range pols {
			var avgs, maxs, rounds, ns []float64
			verified := 0
			count := 0
			for range insts {
				v := verdicts[vi]
				vi++
				if v.Solution == nil {
					// The policy itself failed; nothing to report.
					return v.Err
				}
				if v.N == 0 {
					continue
				}
				count++
				if v.Verified {
					verified++
				} else {
					// Solved but rejected by the oracle: keep running so the
					// verified column can surface how widespread it is.
					fmt.Fprintf(os.Stderr, "flowsim: %v\n", v.Err)
					continue
				}
				avgs = append(avgs, v.Report.AvgResponse)
				maxs = append(maxs, float64(v.Report.MaxResponse))
				rounds = append(rounds, v.Solution.Stats["rounds"])
				ns = append(ns, float64(v.N))
			}
			// A name past 10 bytes takes avgRT's padding: columns align.
			fmt.Printf("%s%*.3f %10.2f %10.1f %8.0f %6d/%-2d\n",
				pol, 21-len(pol), stats.Mean(avgs), stats.Mean(maxs), stats.Mean(rounds), stats.Mean(ns), verified, count)
		}
		if *srpt {
			// The engine solved clones (FixedGen), so insts are as loaded.
			var bounds []float64
			for _, inst := range insts {
				if inst.N() > 0 {
					bounds = append(bounds, float64(core.SRPTLowerBound(inst))/float64(inst.N()))
				}
			}
			fmt.Printf("%-10s %10.3f %10s (per-port SRPT relaxation, avg per flow)\n", "LB:SRPT", stats.Mean(bounds), "-")
		}
		return nil
	}
}
