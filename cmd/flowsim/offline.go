package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"flowsched/internal/core"
	"flowsched/internal/experiments"
	"flowsched/internal/plot"
	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
	"flowsched/internal/workload"
)

// art is `flowsim art`: the offline FS-ART approximation of Theorem 1 on
// one instance — iterative LP rounding plus Birkhoff-von Neumann
// conversion — reporting the schedule's total and average response time
// against the LP lower bound, under port capacities scaled by 1+c.
func art(fs *flag.FlagSet) func() error {
	var (
		ports    = fs.Int("ports", 6, "switch size m (generated instances)")
		mFlag    = fs.Float64("M", 6, "mean arrivals per round")
		tFlag    = fs.Int("T", 6, "arrival rounds")
		c        = fs.Int("c", 1, "capacity augmentation: ports get (1+c)x capacity")
		seed     = fs.Int64("seed", 1, "RNG seed")
		inFile   = fs.String("in", "", "load instance JSON instead of generating")
		schedule = fs.Bool("schedule", false, "print the per-flow schedule")
	)
	return func() error {
		if err := atLeastOne("c", *c); err != nil {
			return err
		}
		inst, err := loadInstance(*inFile, "", workload.PoissonConfig{M: *mFlag, T: *tFlag, Ports: *ports}, *seed)
		if err != nil {
			return err
		}
		if inst.N() == 0 {
			fmt.Println("empty instance")
			return nil
		}
		res, err := core.SolveART(inst, *c)
		if err != nil {
			return err
		}
		total := res.Schedule.TotalResponse(inst)
		fmt.Printf("flows:            %d\n", inst.N())
		fmt.Printf("capacity:         (1+%d)x\n", *c)
		fmt.Printf("LP lower bound:   %.2f (total) %.4f (avg)\n", res.LPBound, res.LPBound/float64(inst.N()))
		fmt.Printf("pseudo-schedule:  %d (total)\n", res.PseudoTotal)
		fmt.Printf("final schedule:   %d (total) %.4f (avg)\n", total, float64(total)/float64(inst.N()))
		fmt.Printf("ratio vs LP:      %.3f\n", float64(total)/res.LPBound)
		fmt.Printf("window h:         %d   batches: %d   LP pivots: %d\n", res.WindowH, res.Batches, res.LPIterations)
		if *schedule {
			for f, t := range res.Schedule.Round {
				e := inst.Flows[f]
				fmt.Printf("flow %4d  %3d->%-3d  r=%-4d t=%-4d rho=%d\n",
					f, e.In, e.Out, e.Release, t, t+1-e.Release)
			}
		}
		return nil
	}
}

// mrt is `flowsim mrt`: the offline FS-MRT algorithm of Theorem 3 on one
// instance — binary search for the optimal maximum response time, then
// KLRT rounding into a schedule that exceeds each port capacity by at most
// 2*d_max-1 — or, with -deadlines, the deadline model of Remark 4.2.
func mrt(fs *flag.FlagSet) func() error {
	var (
		ports     = fs.Int("ports", 6, "switch size m (generated instances)")
		mFlag     = fs.Float64("M", 6, "mean arrivals per round")
		tFlag     = fs.Int("T", 6, "arrival rounds")
		dmax      = fs.Int("dmax", 1, "max demand (capacity scales to match)")
		seed      = fs.Int64("seed", 1, "RNG seed")
		inFile    = fs.String("in", "", "load instance JSON instead of generating")
		deadlines = fs.String("deadlines", "", "comma-separated per-flow deadlines (Remark 4.2 mode)")
		schedule  = fs.Bool("schedule", false, "print the per-flow schedule")
		gantt     = fs.Bool("gantt", false, "print a per-port load timeline")
	)
	return func() error {
		if err := atLeastOne("dmax", *dmax); err != nil {
			return err
		}
		inst, err := loadInstance(*inFile, "",
			workload.PoissonConfig{M: *mFlag, T: *tFlag, Ports: *ports, Cap: *dmax, MaxDemand: *dmax}, *seed)
		if err != nil {
			return err
		}
		if inst.N() == 0 {
			fmt.Println("empty instance")
			return nil
		}
		var sched *switchnet.Schedule
		if *deadlines != "" {
			dl, err := parseInts(*deadlines)
			if err != nil {
				return err
			}
			if len(dl) != inst.N() {
				return fmt.Errorf("got %d deadlines for %d flows", len(dl), inst.N())
			}
			win, err := core.DeadlineWindows(inst, dl)
			if err != nil {
				return err
			}
			res, err := core.SolveTimeConstrained(inst, win)
			if err != nil {
				return err
			}
			sched = res.Schedule
			fmt.Printf("deadline mode:    all %d flows scheduled within deadlines\n", inst.N())
			fmt.Printf("capacity:         c_p + %d\n", res.CapIncrease)
		} else {
			res, err := core.SolveMRT(inst)
			if err != nil {
				return err
			}
			sched = res.Schedule
			fmt.Printf("flows:            %d\n", inst.N())
			fmt.Printf("optimal rho (LP): %d\n", res.Rho)
			fmt.Printf("achieved maxRT:   %d\n", sched.MaxResponse(inst))
			fmt.Printf("capacity:         c_p + %d (2*dmax-1, dmax=%d)\n", res.CapIncrease, inst.MaxDemand())
			raw, _ := verify.CheckSchedule(inst, sched, inst.Switch.Caps()) // fails wherever the increase is used
			fmt.Printf("measured overload: %d\n", raw.MaxOverload)
			fmt.Printf("trivial LB:       %d\n", core.TrivialMRTLowerBound(inst))
		}
		if *schedule {
			for f, t := range sched.Round {
				e := inst.Flows[f]
				fmt.Printf("flow %4d  %3d->%-3d  d=%-3d r=%-4d t=%-4d rho=%d\n",
					f, e.In, e.Out, e.Demand, e.Release, t, t+1-e.Release)
			}
		}
		if *gantt {
			fmt.Print(plot.Gantt(inst, sched, inst.Switch.Caps()))
		}
		return nil
	}
}

// parseInts reads a comma-separated list of integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, usageError{fmt.Errorf("bad integer %q", part)}
		}
		out = append(out, v)
	}
	return out, nil
}

// gen is `flowsim gen`: instances in JSON or CSV trace form from the
// repository's workload models — the paper's Poisson grid (Section 5.2.1),
// the online lower-bound gadgets of Figure 4, the RTT hardness reduction of
// Theorem 2, and the extended traffic patterns.
func gen(fs *flag.FlagSet) func() error {
	var (
		kind     = fs.String("kind", "poisson", "poisson, permutation, hotspot, smooth, fig4a, fig4b, rtt")
		ports    = fs.Int("ports", 8, "switch size m")
		mFlag    = fs.Float64("M", 8, "mean arrivals per round (poisson/hotspot)")
		tFlag    = fs.Int("T", 10, "arrival rounds")
		dmax     = fs.Int("dmax", 1, "max demand (capacity scales to match)")
		hot      = fs.Float64("hot", 0.5, "hotspot fraction (hotspot)")
		teachers = fs.Int("teachers", 3, "RTT teachers (rtt)")
		classes  = fs.Int("classes", 4, "RTT classes (rtt)")
		seed     = fs.Int64("seed", 1, "RNG seed")
		format   = fs.String("format", "json", "json or trace (CSV)")
		outFile  = fs.String("o", "", "output file (default stdout)")
	)
	return func() error {
		write := map[string]func(io.Writer, *switchnet.Instance) error{
			"json": switchnet.WriteInstance, "trace": workload.WriteTrace}[*format]
		if write == nil {
			return usageError{fmt.Errorf("unknown format %q", *format)}
		}
		if err := cmp.Or(atLeastOne("ports", *ports), atLeastOne("dmax", *dmax)); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(*seed))
		var inst *switchnet.Instance
		switch *kind {
		case "poisson":
			inst = workload.PoissonConfig{M: *mFlag, T: *tFlag, Ports: *ports, Cap: *dmax, MaxDemand: *dmax}.Generate(rng)
		case "permutation":
			inst = workload.Permutation(rng, *ports, *tFlag)
		case "hotspot":
			inst = workload.Hotspot(rng, *ports, *mFlag, *tFlag, *hot)
		case "smooth":
			inst = workload.SmoothSequence(rng, *ports, *tFlag)
		case "fig4a":
			inst = workload.Fig4a(*tFlag, int(*mFlag))
		case "fig4b":
			inst = workload.Fig4b()
		case "rtt":
			r := workload.RandomRTT(rng, *teachers, *classes)
			inst, _ = workload.ReduceRTT(r)
			fmt.Fprintf(os.Stderr, "flowsim gen: RTT instance satisfiable=%v (schedulable with rho=3 iff true)\n",
				r.Satisfiable())
		default:
			return usageError{fmt.Errorf("unknown kind %q", *kind)}
		}
		if err := inst.Validate(); err != nil {
			return fmt.Errorf("generated invalid instance: %w", err)
		}
		out := os.Stdout
		if *outFile != "" {
			var err error
			if out, err = os.Create(*outFile); err != nil {
				return err
			}
			defer out.Close()
		}
		if err := write(out, inst); err != nil {
			return err
		}
		if *outFile != "" {
			if err := out.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "flowsim gen: %d flows on a %dx%d switch\n",
			inst.N(), inst.Switch.NumIn(), inst.Switch.NumOut())
		return nil
	}
}

// paper is `flowsim paper`: the artifacts of the internal/experiments
// registry — Figures 6 and 7, the Theorem 1 and 3 tables, the online AMRT
// comparison, the Figure 4(a) gadget, the ablations and the engine sweep —
// to stdout and, with -out, to CSV and ASCII files.
func paper(fs *flag.FlagSet) func() error {
	cfg := experiments.DefaultConfig()
	fig := fs.String("fig", "all", "which artifact: 6, 7, t1, t3, amrt, 4a, ablation, bounds, sweep, all")
	fs.IntVar(&cfg.Ports, "ports", cfg.Ports, "switch size m (paper: 150)")
	fs.IntVar(&cfg.Trials, "trials", cfg.Trials, "simulation trials per grid point (paper: 10)")
	fs.IntVar(&cfg.LPTrials, "lptrials", cfg.LPTrials, "LP trials per grid point")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "base RNG seed")
	out := fs.String("out", "", "directory for CSV/ASCII outputs")
	fs.IntVar(&cfg.Workers, "workers", cfg.Workers, "parallel workers (0 = GOMAXPROCS)")
	heurT := fs.String("T", "6,8,10,12,16,20", "comma-separated T sweep for heuristics")
	lpT := fs.String("lpT", "6,8,10", "comma-separated T sweep for the figures' LP baselines, '' for none (at 150 ports, T=6: 7 ms a draw at M=50, 0.28 s at M=100, 35 s at M=150)")
	return func() error {
		arts, err := experiments.Select(*fig)
		if err != nil {
			return usageError{err}
		}
		if cfg.HeurT, err = parseInts(*heurT); err != nil {
			return err
		}
		if cfg.LPT, err = parseInts(*lpT); err != nil {
			return err
		}
		if err := cmp.Or(atLeastOne("ports", cfg.Ports), atLeastOne("trials", cfg.Trials), atLeastOne("lptrials", cfg.LPTrials)); err != nil {
			return err
		}
		for _, a := range arts {
			fmt.Printf("== %s ==\n", a.Title)
			res, err := a.Run(cfg)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			if *out != "" {
				if err := res.Save(*out); err != nil {
					return err
				}
			}
			fmt.Println()
		}
		return nil
	}
}
