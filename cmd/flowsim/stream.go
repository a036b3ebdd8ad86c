package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"flowsched/internal/chkpt"
	"flowsched/internal/obs"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// streamFlags are the values `flowsim stream` runs with. The flags are
// bound to the fields themselves, so a restore adopts a checkpoint's
// values through the flag set and each drain reads them from here.
type streamFlags struct {
	ports, dmax, shards, maxPending, window      int
	verifyEvery, deadline, logRounds, ckptRounds int
	m, alpha                                     float64
	seed, flows                                  int64
	policy, trace, admit, roundLog, ckptFile     string
	cpuProfile, memProfile, restoreFile          string
	flowsSet                                     bool // -flows was given explicitly
	restore                                      *chkpt.Checkpoint
}

// streamCmd is `flowsim stream`: an unbounded arrival stream drained
// through the streaming runtime, reporting its final metrics. -policy all
// sweeps every native streaming policy sequentially over identical
// arrivals.
func streamCmd(fs *flag.FlagSet) func() error {
	o := &streamFlags{}
	fs.IntVar(&o.ports, "ports", 150, "switch size m")
	fs.Float64Var(&o.m, "M", 150, "mean flow arrivals per round")
	fs.StringVar(&o.policy, "policy", "all", fmt.Sprintf("one of %v (the paper's heuristics run at shards=1), or all: every native policy %v in turn", stream.AllNames(), stream.Names()))
	fs.Int64Var(&o.seed, "seed", 1, "base RNG seed")
	fs.StringVar(&o.trace, "trace", "", "load a CSV flow trace (release,in,out,demand) onto a -ports switch")
	fs.IntVar(&o.dmax, "dmax", 1, "max flow demand (capacity scales to match)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the drain to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a post-drain heap profile to this file")
	fs.IntVar(&o.shards, "shards", 1, "shards the input ports are partitioned across, which take turns each round on one goroutine (at least 1, capped at -ports; > 1 needs a native policy and changes the schedule)")
	fs.Int64Var(&o.flows, "flows", 1_000_000, "total flows to drain, at least 1 (set explicitly with -trace to cap the replay; otherwise traces drain fully)")
	fs.StringVar(&o.admit, "admit", "lossless", "admission mode at the MaxPending limit — lossless (backpressure), drop (shed arrivals), deadline (expire aged flows)")
	fs.IntVar(&o.deadline, "deadline", 0, "response-time bound in rounds for -admit deadline")
	fs.Float64Var(&o.alpha, "alpha", 0, "bounded-Pareto size tail index (0 = unit/uniform sizes)")
	fs.IntVar(&o.maxPending, "maxpending", stream.DefaultMaxPending, "admission limit on the resident pending set")
	fs.IntVar(&o.window, "window", stream.DefaultWindowRounds, "sliding metrics window in rounds")
	fs.IntVar(&o.verifyEvery, "verifyevery", 0, "check every round with the verify oracle as it closes, failing the run in a rejected round and counting each window of this many rounds that checked one (0 = off)")
	fs.StringVar(&o.roundLog, "roundlog", "", "write the flight recorder's last rounds as JSONL to this file (policy-suffixed when sweeping)")
	fs.IntVar(&o.logRounds, "logrounds", 0, "flight recorder ring size for -roundlog (0 = default)")
	fs.StringVar(&o.ckptFile, "checkpoint", "", "write a checkpoint file every -checkpointrounds rounds (0 = once, after the drain)")
	fs.IntVar(&o.ckptRounds, "checkpointrounds", 0, "periodic checkpoint cadence in rounds, not negative (needs -checkpoint; 0 = once, after the drain)")
	fs.StringVar(&o.restoreFile, "restore", "", "resume the drain from this checkpoint file (same seed/trace/flags as the original run)")
	return func() error {
		if err := cmp.Or(atLeastOne("dmax", o.dmax), atLeastOne("ports", o.ports)); err != nil {
			return err
		}
		fs.Visit(func(f *flag.Flag) { o.flowsSet = o.flowsSet || f.Name == "flows" })
		if o.restoreFile != "" {
			ck, err := chkpt.Load(o.restoreFile)
			if err != nil {
				return err
			}
			// The checkpoint's configuration is the default on restore; an
			// explicit flag deliberately deviates from it.
			if err := ck.AdoptFlags(fs); err != nil {
				return err
			}
			o.restore = ck
		}
		// After adoption: a checkpoint's -maxpending and -shards are held
		// to the same rule as ones typed on the command line.
		if err := cmp.Or(atLeastOne("maxpending", o.maxPending), atLeastOne("shards", o.shards),
			atLeastOne("window", o.window), atLeastOne("flows", o.flows)); err != nil {
			return err
		}
		switch {
		case o.ckptRounds < 0:
			return usageError{fmt.Errorf("-checkpointrounds must not be negative, got %d", o.ckptRounds)}
		case o.verifyEvery < 0:
			return usageError{fmt.Errorf("-verifyevery must not be negative, got %d", o.verifyEvery)}
		case o.logRounds > obs.MaxRecords:
			return usageError{fmt.Errorf("-logrounds must be at most %d, got %d", obs.MaxRecords, o.logRounds)}
		case o.ckptRounds != 0 && o.ckptFile == "":
			return usageError{fmt.Errorf("-checkpointrounds %d needs -checkpoint", o.ckptRounds)}
		case (o.ckptFile != "" || o.restore != nil) && o.policy == "all":
			return usageError{errors.New("-checkpoint/-restore need a single policy, not a -policy all sweep")}
		}
		var pols []stream.Policy
		if o.policy == "all" {
			for _, name := range stream.Names() {
				pols = append(pols, stream.ByName(name))
			}
		} else {
			pol := stream.ByName(o.policy)
			if pol == nil {
				return usageError{fmt.Errorf("unknown stream policy %q (known: %v; all drains the native ones)", o.policy, stream.AllNames())}
			}
			pols = []stream.Policy{pol}
		}
		mode, err := stream.ParseAdmitMode(o.admit)
		if err != nil {
			return usageError{err}
		}
		if o.cpuProfile != "" {
			f, err := os.Create(o.cpuProfile)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return err
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
			if err := drainStream(o, pol, mode, logFile); err != nil {
				return err
			}
		}
		if o.memProfile == "" {
			return nil
		}
		f, err := os.Create(o.memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
		return f.Close()
	}
}

// streamSource builds a fresh arrival source for one drain, and what
// closes it. Each policy in a -policy all sweep gets its own source (same
// trace bytes or RNG seed), so every drain judges the same arrival
// process.
func streamSource(o *streamFlags, sw switchnet.Switch) (stream.Source, func() error, error) {
	if o.trace != "" {
		f, err := os.Open(o.trace)
		if err != nil {
			return nil, nil, err
		}
		ts := workload.NewTraceSource(f, sw)
		var src stream.Source = ts
		if o.flowsSet {
			// -flows was given explicitly: cap the replay. The default
			// (1M) must not silently truncate a longer trace.
			src = workload.NewLimit(ts, o.flows)
		}
		return src, f.Close, nil
	}
	src := workload.NewArrivalSource(workload.ArrivalConfig{
		Ports: o.ports, Cap: o.dmax, M: o.m, MaxFlows: o.flows,
		Alpha: o.alpha, MinDemand: 1, MaxDemand: o.dmax,
	}, rand.New(rand.NewSource(o.seed)))
	return src, func() error { return nil }, nil
}

// drainStream runs one policy to completion over a fresh source and
// prints its metrics block. A non-empty logFile attaches a flight
// recorder to the drain and dumps its last rounds as JSONL afterwards.
func drainStream(o *streamFlags, pol stream.Policy, mode stream.AdmitMode, logFile string) error {
	sw := switchnet.NewSwitch(o.ports, o.ports, o.dmax)
	src, closeSrc, err := streamSource(o, sw)
	if err != nil {
		return err
	}
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
			return err
		}
		workload.Skip(src, o.restore.SourceConsumed)
		scfg.Resume = o.restore.State()
	}
	var rt *stream.Runtime
	var ckptErr error
	ckptWrites := 0
	ckptLast := 0
	if o.ckptFile != "" && o.ckptRounds > 0 {
		scfg.CheckpointEveryRounds = o.ckptRounds
		scfg.OnCheckpoint = func(st *stream.CheckpointState) {
			if ckptErr != nil {
				return
			}
			if ckptErr = chkpt.Save(o.ckptFile, chkpt.FromState(st, scfg)); ckptErr != nil {
				rt.Stop() // end the drain; it returns ckptErr below
				return
			}
			ckptWrites++
			ckptLast = st.Round
		}
	}
	rt, err = stream.New(src, scfg)
	if err != nil {
		return err
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
	if err := cmp.Or(err, ckptErr); err != nil {
		return err
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
				return err
			}
			if err := chkpt.Save(o.ckptFile, chkpt.FromState(&st, scfg)); err != nil {
				return err
			}
			ckptWrites, ckptLast = 1, st.Round
		}
		fmt.Printf("checkpoint      %s (%d writes, last at round %d)\n", o.ckptFile, ckptWrites, ckptLast)
	}
	if rec == nil {
		return nil
	}
	f, err := os.Create(logFile)
	if err != nil {
		return err
	}
	written, err := rec.WriteJSONL(f, rec.Cap())
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("round log       %s (%d of %d recorded rounds)\n", logFile, written, rec.Written())
	return nil
}
