// Command flowsim is the repository's front door to the paper's algorithms.
// Its first argument picks a subcommand (`flowsim CMD -h` lists its flags);
// flags alone run the simulator.
//
//	flowsim paper -fig all -out results                   the figures and tables (internal/experiments)
//	flowsim paper -fig 7 -ports 150 -lp=false -trials 3   ... at paper scale, heuristics only
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
// Streaming mode runs the internal/stream runtime on an unbounded arrival
// process instead of a finite instance: flows arrive Poisson(M) per round
// (optionally with bounded-Pareto sizes, or replayed from -trace), pass
// through admission control, and drain under an incremental policy with
// sliding-window metrics and optional spot-check verification:
//
// With -shards K the runtime partitions the input ports across K shards,
// which take turns each round, oldest first, on one goroutine; the
// pending flows stay in one store. K > 1 changes the schedule (native
// policies only), not the parallelism.
// The native streaming policies — RoundRobin, OldestFirst (age-aware
// oldest-head-first, the paper's MinRTime discipline at incremental
// cost), WeightedISLIP (queue-age-weighted request/grant/accept), and
// StreamFIFO — run sharded; simulator policy names bridge at shards=1:
//
//	flowsim -stream -flows 1000000 -ports 150 -M 300 -policy OldestFirst
//	flowsim -stream -flows 1000000 -ports 150 -M 300 -policy WeightedISLIP -shards 4
//	flowsim -stream -flows 200000 -alpha 1.3 -dmax 8 -policy MaxWeight -verifyevery 64
//	flowsim -stream -flows 500000 -ports 64 -M 128 -policy all
//	flowsim -stream -flows 200000 -maxpending 1024 -admit drop -policy RoundRobin
//	flowsim -stream -flows 200000 -policy OldestFirst -roundlog rounds.jsonl
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
//	flowsim -stream -policy StreamFIFO -flows 200000 -checkpoint run.ckpt -checkpointrounds 500
//	flowsim -stream -policy StreamFIFO -flows 200000 -restore run.ckpt
//
// A restore adopts the checkpoint's policy (when -policy is left at
// "all") and its shards/maxpending/admit/deadline unless the matching
// flag is given explicitly; corrupt or truncated checkpoint files are
// refused with a typed error before anything runs.
//
// With -stream -policy all every native policy drains sequentially over
// identical arrivals (same seed or trace). With -trace, -flows caps the
// replay only when set explicitly; by default traces drain fully.
// -admit selects the admission behaviour at the MaxPending limit:
// lossless backpressure (default), drop (shed arrivals), or deadline
// (expire flows older than -deadline rounds).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"flowsched/internal/chkpt"
	"flowsched/internal/core"
	"flowsched/internal/engine"
	"flowsched/internal/heuristics"
	"flowsched/internal/obs"
	"flowsched/internal/sim"
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
var commands = map[string]command{"art": art, "mrt": mrt, "gen": gen, "paper": paper}

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
			fmt.Fprintf(stderr, "flowsim: unknown command %q (commands: art, gen, mrt, paper; flags alone run the simulator)\n", args[0])
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

// simulate is flowsim without a subcommand: the online simulator, or with
// -stream the streaming runtime.
func simulate(fs *flag.FlagSet) func() error {
	var (
		ports   = fs.Int("ports", 150, "switch size m")
		mFlag   = fs.Float64("M", 150, "mean flow arrivals per round")
		tFlag   = fs.Int("T", 20, "arrival rounds")
		policy  = fs.String("policy", "all", "MaxCard, MinRTime, MaxWeight, FIFO, GreedyAge, or all; with -stream a native streaming policy — RoundRobin, OldestFirst, WeightedISLIP, StreamFIFO — while simulator names run bridged at shards=1; -stream -policy all drains every native policy sequentially")
		trials  = fs.Int("trials", 10, "number of random trials")
		seed    = fs.Int64("seed", 1, "base RNG seed")
		inFile  = fs.String("in", "", "load instance JSON instead of generating")
		trace   = fs.String("trace", "", "load a CSV flow trace (release,in,out,demand) onto a -ports switch")
		srpt    = fs.Bool("srpt", false, "also print the per-port SRPT lower bound")
		demands = fs.Int("dmax", 1, "max flow demand (capacity scales to match)")
		workers = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")

		streamMode  = fs.Bool("stream", false, "streaming mode: drain an unbounded arrival stream through internal/stream")
		cpuProfile  = fs.String("cpuprofile", "", "stream: write a CPU profile of the drain to this file")
		memProfile  = fs.String("memprofile", "", "stream: write a post-drain heap profile to this file")
		shards      = fs.Int("shards", 1, "stream: shards the input ports are partitioned across, which take turns each round on one goroutine (at least 1, capped at -ports; > 1 needs a native policy and changes the schedule)")
		flows       = fs.Int64("flows", 1_000_000, "stream: total flows to drain, at least 1 (set explicitly with -trace to cap the replay; otherwise traces drain fully)")
		admit       = fs.String("admit", "lossless", "stream: admission mode at the MaxPending limit — lossless (backpressure), drop (shed arrivals), deadline (expire aged flows)")
		deadlineF   = fs.Int("deadline", 0, "stream: response-time bound in rounds for -admit deadline")
		alpha       = fs.Float64("alpha", 0, "stream: bounded-Pareto size tail index (0 = unit/uniform sizes)")
		maxPending  = fs.Int("maxpending", stream.DefaultMaxPending, "stream: admission limit on the resident pending set")
		window      = fs.Int("window", stream.DefaultWindowRounds, "stream: sliding metrics window in rounds")
		verifyEvery = fs.Int("verifyevery", 0, "stream: spot-check window in rounds fed to the verify oracle (0 = off)")
		roundLog    = fs.String("roundlog", "", "stream: write the flight recorder's last rounds as JSONL to this file (policy-suffixed when sweeping)")
		logRounds   = fs.Int("logrounds", 0, "stream: flight recorder ring size for -roundlog (0 = default)")
		ckptFile    = fs.String("checkpoint", "", "stream: write a checkpoint file every -checkpointrounds rounds (0 = once, after the drain)")
		ckptRounds  = fs.Int("checkpointrounds", 0, "stream: periodic checkpoint cadence in rounds, not negative (needs -checkpoint; 0 = once, after the drain)")
		restoreF    = fs.String("restore", "", "stream: resume the drain from this checkpoint file (same seed/trace/flags as the original run)")
	)
	usage := fs.Usage
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "Subcommands (flowsim CMD -h): art, gen, mrt, paper. Without one:")
		usage()
	}
	return func() error {
		if err := atLeastOne("dmax", *demands); err != nil {
			return err
		}
		if *streamMode {
			if err := atLeastOne("ports", *ports); err != nil {
				return err
			}
			explicit := map[string]bool{}
			fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
			var restoreCk *chkpt.Checkpoint
			if *restoreF != "" {
				ck, err := chkpt.Load(*restoreF)
				if err != nil {
					return err
				}
				// The checkpoint's configuration is the default on restore; an
				// explicit flag deliberately deviates from it.
				if err := ck.AdoptFlags(fs); err != nil {
					return err
				}
				restoreCk = ck
			}
			// After adoption: a checkpoint's -maxpending and -shards are held
			// to the same rule as ones typed on the command line.
			if err := atLeastOne("maxpending", *maxPending); err != nil {
				return err
			}
			if err := atLeastOne("shards", *shards); err != nil {
				return err
			}
			if err := atLeastOne("window", *window); err != nil {
				return err
			}
			if err := atLeastOne("flows", *flows); err != nil {
				return err
			}
			if *ckptRounds < 0 {
				return usageError{fmt.Errorf("-checkpointrounds must not be negative, got %d", *ckptRounds)}
			}
			if *verifyEvery < 0 {
				return usageError{fmt.Errorf("-verifyevery must not be negative, got %d", *verifyEvery)}
			}
			if *logRounds > obs.MaxRecords {
				return usageError{fmt.Errorf("-logrounds must be at most %d, got %d", obs.MaxRecords, *logRounds)}
			}
			runStream(streamOpts{
				ports: *ports, m: *mFlag, policy: *policy, seed: *seed, trace: *trace,
				dmax: *demands, flows: *flows, flowsSet: explicit["flows"], alpha: *alpha,
				maxPending: *maxPending, admit: *admit, deadline: *deadlineF,
				window: *window, verifyEvery: *verifyEvery, shards: *shards,
				cpuProfile: *cpuProfile, memProfile: *memProfile,
				roundLog: *roundLog, logRounds: *logRounds,
				ckptFile: *ckptFile, ckptRounds: *ckptRounds, restore: restoreCk,
			})
			return nil
		}

		pols := heuristics.All()
		if *policy != "all" {
			p := heuristics.ByName(*policy)
			if p == nil {
				return usageError{fmt.Errorf("unknown policy %q", *policy)}
			}
			pols = []sim.Policy{p}
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
		verdicts := engine.Run(scenarios, engine.Options{Workers: *workers, KeepInstances: *srpt})

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
			fmt.Printf("%-10s %10.3f %10.2f %10.1f %8.0f %6d/%-2d\n",
				pol.Name(), stats.Mean(avgs), stats.Mean(maxs), stats.Mean(rounds), stats.Mean(ns), verified, count)
		}
		if *srpt {
			// The first policy's verdicts cover every distinct instance.
			var bounds []float64
			for _, v := range verdicts[:len(insts)] {
				if inst := v.Instance; inst != nil && inst.N() > 0 {
					bounds = append(bounds, float64(core.SRPTLowerBound(inst))/float64(inst.N()))
				}
			}
			fmt.Printf("%-10s %10.3f %10s (per-port SRPT relaxation, avg per flow)\n", "LB:SRPT", stats.Mean(bounds), "-")
		}
		return nil
	}
}

type streamOpts struct {
	ports       int
	m           float64
	policy      string
	seed        int64
	trace       string
	dmax        int
	flows       int64
	flowsSet    bool
	admit       string
	deadline    int
	alpha       float64
	maxPending  int
	window      int
	verifyEvery int
	shards      int
	cpuProfile  string
	memProfile  string
	roundLog    string
	logRounds   int
	ckptFile    string
	ckptRounds  int
	restore     *chkpt.Checkpoint
}

// streamPolicy resolves -policy against the native streaming registry
// first (stream.Names: RoundRobin, OldestFirst, WeightedISLIP,
// StreamFIFO — shardable, incremental cost) and falls back to bridging a
// simulator heuristic (full pending rescan per round, pinned to
// shards=1). "all" is handled by the caller: it fans out to one drain
// per native policy.
func streamPolicy(name string) stream.Policy {
	if p := stream.ByName(name); p != nil {
		return p
	}
	if p := heuristics.ByName(name); p != nil {
		return &stream.Bridge{P: p}
	}
	return nil
}

// streamSource builds a fresh arrival source for one drain. Each policy
// in a -policy all sweep gets its own source (same trace bytes or RNG
// seed), so every drain judges the same arrival process.
func streamSource(o streamOpts, sw switchnet.Switch) (stream.Source, func()) {
	if o.trace != "" {
		f, err := os.Open(o.trace)
		if err != nil {
			fatal(err)
		}
		ts := workload.NewTraceSource(f, sw)
		var src stream.Source = ts
		if o.flowsSet {
			// -flows was given explicitly: cap the replay. The default
			// (1M) must not silently truncate a longer trace.
			src = workload.NewLimit(ts, o.flows)
		}
		return src, func() { f.Close() }
	}
	src := workload.NewArrivalSource(workload.ArrivalConfig{
		Ports: o.ports, Cap: o.dmax, M: o.m, MaxFlows: o.flows,
		Alpha: o.alpha, MinDemand: 1, MaxDemand: o.dmax,
	}, rand.New(rand.NewSource(o.seed)))
	return src, func() {}
}

// runStream drains an unbounded arrival stream through the streaming
// runtime and reports its final metrics. -policy all sweeps every
// native streaming policy sequentially over identical arrivals.
func runStream(o streamOpts) {
	if o.ckptRounds != 0 && o.ckptFile == "" {
		fatal(fmt.Errorf("-checkpointrounds %d needs -checkpoint", o.ckptRounds))
	}
	if (o.ckptFile != "" || o.restore != nil) && o.policy == "all" {
		fatal(fmt.Errorf("-checkpoint/-restore need a single policy, not a -policy all sweep"))
	}
	var pols []stream.Policy
	if o.policy == "all" {
		for _, name := range stream.Names() {
			pols = append(pols, stream.ByName(name))
		}
	} else {
		pol := streamPolicy(o.policy)
		if pol == nil {
			fmt.Fprintf(os.Stderr, "flowsim: unknown stream policy %q (native: %v; simulator policies bridge at shards=1; all sweeps the native set)\n",
				o.policy, stream.Names())
			os.Exit(2)
		}
		pols = []stream.Policy{pol}
	}
	mode, err := stream.ParseAdmitMode(o.admit)
	if err != nil {
		fatal(err)
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	for i, pol := range pols {
		if i > 0 {
			fmt.Println()
		}
		logFile := o.roundLog
		if logFile != "" && len(pols) > 1 {
			// A sweep writes one trace per policy: suffix the file name so
			// drains don't clobber each other.
			logFile = logFile + "." + pol.Name()
		}
		drainStream(o, pol, mode, logFile)
	}
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// drainStream runs one policy to completion over a fresh source and
// prints its metrics block. A non-empty logFile attaches a flight
// recorder to the drain and dumps its last rounds as JSONL afterwards.
func drainStream(o streamOpts, pol stream.Policy, mode stream.AdmitMode, logFile string) {
	sw := switchnet.NewSwitch(o.ports, o.ports, o.dmax)
	src, closeSrc := streamSource(o, sw)
	defer closeSrc()
	var rec *obs.FlightRecorder
	if logFile != "" {
		rec = obs.NewFlightRecorder(o.logRounds)
	}
	scfg := stream.Config{
		Switch:       sw,
		Policy:       pol,
		Shards:       o.shards,
		MaxPending:   o.maxPending,
		Admit:        mode,
		Deadline:     o.deadline,
		WindowRounds: o.window,
		VerifyEvery:  o.verifyEvery,
		Recorder:     rec,
	}
	if o.restore != nil {
		// The checkpointed pending set (and lookahead) is resident with its
		// original releases when New returns; the regenerated arrival
		// stream skips exactly the flows the checkpointed run had already
		// consumed.
		if err := o.restore.Compatible(sw); err != nil {
			fatal(err)
		}
		workload.Skip(src, o.restore.SourceConsumed)
		scfg.Resume = o.restore.State()
	}
	ckptWrites := 0
	ckptLast := 0
	if o.ckptFile != "" && o.ckptRounds > 0 {
		scfg.CheckpointEveryRounds = o.ckptRounds
		scfg.OnCheckpoint = func(st *stream.CheckpointState) {
			if err := chkpt.Save(o.ckptFile, chkpt.FromState(st, scfg)); err != nil {
				fatal(err)
			}
			ckptWrites++
			ckptLast = st.Round
		}
	}
	rt, err := stream.New(src, scfg)
	if err != nil {
		fatal(err)
	}
	if o.restore != nil {
		fmt.Printf("restore         resumed at round %d, %d pending, %d shards\n", o.restore.Round, o.restore.Pending, rt.Snapshot().Shards)
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	sum, err := rt.Run()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		fatal(err)
	}
	rounds := max(sum.Rounds, 1)
	fmt.Printf("policy          %s\n", pol.Name())
	fmt.Printf("shards          %d\n", sum.Shards)
	fmt.Printf("flows           %d (admitted %d)\n", sum.Completed, sum.Admitted)
	fmt.Printf("rounds          %d (final round %d)\n", sum.Rounds, sum.Round)
	fmt.Printf("wall time       %v (%.0f flows/s)\n",
		elapsed.Round(time.Millisecond),
		float64(sum.Completed)/elapsed.Seconds())
	fmt.Printf("round cost      %.0f ns/round, %.3f allocs/round, %.1f B/round (drain total amortized)\n",
		float64(elapsed.Nanoseconds())/float64(rounds),
		float64(ms1.Mallocs-ms0.Mallocs)/float64(rounds),
		float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(rounds))
	fmt.Printf("avg response    %.3f rounds\n", sum.AvgResponse)
	fmt.Printf("max response    %d rounds\n", sum.MaxResponse)
	fmt.Printf("window p50/p90/p99  %.0f / %.0f / %.0f rounds (last %d rounds)\n",
		sum.P50, sum.P90, sum.P99, o.window)
	fmt.Printf("peak pending    %d (admission limit %d)\n", sum.PeakPending, o.maxPending)
	fmt.Printf("backpressured   %d flows\n", sum.Backpressured)
	switch mode {
	case stream.AdmitDrop:
		fmt.Printf("dropped         %d flows (shed on a full pending set)\n", sum.Dropped)
	case stream.AdmitDeadline:
		fmt.Printf("expired         %d flows (deadline %d rounds)\n", sum.Expired, o.deadline)
	}
	if o.verifyEvery > 0 {
		fmt.Printf("verified        %d windows of %d rounds\n", sum.WindowsVerified, o.verifyEvery)
	}
	if o.ckptFile != "" {
		if o.ckptRounds == 0 {
			// Final-only mode: persist the drained state (nothing pending,
			// counters exact) so a later run can continue the accounting.
			st, err := rt.CheckpointState(context.Background(), nil)
			if err != nil {
				fatal(err)
			}
			if err := chkpt.Save(o.ckptFile, chkpt.FromState(&st, scfg)); err != nil {
				fatal(err)
			}
			ckptWrites, ckptLast = 1, st.Round
		}
		fmt.Printf("checkpoint      %s (%d writes, last at round %d)\n", o.ckptFile, ckptWrites, ckptLast)
	}
	if rec != nil {
		f, err := os.Create(logFile)
		if err != nil {
			fatal(err)
		}
		written, err := rec.WriteJSONL(f, rec.Cap())
		if err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("round log       %s (%d of %d recorded rounds)\n", logFile, written, rec.Written())
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flowsim: %v\n", err)
	os.Exit(1)
}
