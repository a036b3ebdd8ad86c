package main

import (
	"fmt"
	"math/rand"
	"time"

	"flowsched"
	"flowsched/internal/bvn"
)

// offlineTraced is the per-layer run of offline_paper: a span around each
// public call of the pipeline, per instance, plus the pieces the pipeline
// hides (IterativeRound, one BvN decomposition), the paper's heuristics
// against the LP bounds on the same instances (the Fig 6/7 gaps), and one
// paper-scale simulation per heuristic.
func (r *run) offlineTraced() error {
	insts := r.offlineInstances()
	if _, err := r.pipeline(insts[:1], plainStage); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	var plain, traced []float64
	var tr *tracer
	var per []pipelineResult
	budget := r.opt.seconds * 0.6
	for start := time.Now(); len(plain) == 0 || time.Since(start).Seconds() < budget; {
		t0 := time.Now()
		if _, err := r.pipeline(insts, plainStage); err != nil {
			return err
		}
		plain = append(plain, time.Since(t0).Seconds())

		tr, per = newTracer(r.w.name), per[:0]
		root := tr.begin("run", noParent)
		for i := range insts {
			parent := tr.begin("offline.instance", root)
			res, err := r.pipeline(insts[i:i+1], tr.stage(&parent))
			tr.finish(parent)
			if err != nil {
				return err
			}
			per = append(per, res)
		}
		tr.finish(root)
		traced = append(traced, float64(tr.spans[root].end-tr.spans[root].start)/1e9)
	}
	r.set("obs.recorder_overhead_pct", 100*(median(traced)/median(plain)-1))

	var total pipelineResult
	for _, res := range per {
		total.PivotsLB += res.PivotsLB
		total.PivotsART += res.PivotsART
		total.ARTBound += res.ARTBound
		total.MRTLBs += res.MRTLBs
	}
	r.set("lp.pivots_art_lb", float64(total.PivotsLB))
	r.set("lp.pivots_solve_art", float64(total.PivotsART))

	// The pieces SolveART hides, under the trace's root.
	root := int32(0)
	extras := tr.stage(&root)
	iterations := 0
	for i, inst := range insts {
		var ps *flowsched.PseudoSchedule
		var err error
		extras("core.iterative_round", func() { ps, err = flowsched.IterativeRound(inst) })
		if err != nil {
			return fmt.Errorf("instance %d: IterativeRound: %w", i, err)
		}
		iterations += ps.RoundingIterations
		edges := make([][2]int, inst.N())
		for j, f := range inst.Flows {
			edges[j] = [2]int{f.In, f.Out}
		}
		extras("bvn.decompose", func() { bvn.Decompose(edges, inst.Switch.InCaps, inst.Switch.OutCaps) })
	}
	r.set("rounding.iterations", float64(iterations))

	ms := func(span string) float64 { return median(tr.durations(span)) }
	r.set("core.art_lb_ms_p50", ms("core.art_lb"))
	r.set("core.solve_art_ms_p50", ms("core.solve_art"))
	r.set("core.mrt_lb_ms_p50", ms("core.mrt_lb"))
	r.set("core.solve_mrt_ms_p50", ms("core.solve_mrt"))
	r.set("core.iterative_round_ms_p50", ms("core.iterative_round"))
	r.set("verify.check_us_offline", 1e3*ms("verify.check_offline"))
	r.set("bvn.decompose_us_p50", 1e3*ms("bvn.decompose"))
	lbNS, _ := tr.selfTime("core.art_lb")
	r.set("lp.ns_per_pivot", float64(lbNS)/float64(max(total.PivotsLB, 1)))

	// Figures 6 and 7: each unaugmented heuristic against the LP bounds.
	// A real schedule can never beat either bound.
	for _, name := range paperHeuristics {
		pol := flowsched.PolicyByName(name)
		if pol == nil {
			return fmt.Errorf("no heuristic %q", name)
		}
		sumTotal, sumMax := 0, 0
		for i, inst := range insts {
			res, err := flowsched.Simulate(inst, pol)
			if err != nil {
				return fmt.Errorf("instance %d: %s: %w", i, name, err)
			}
			r.check(float64(res.TotalResponse) >= per[i].ARTBound-1e-6, "instance %d: %s total response %d beats the LP bound %v", i, name, res.TotalResponse, per[i].ARTBound)
			r.check(res.MaxResponse >= per[i].MRTLBs, "instance %d: %s max response %d beats the MRT bound %d", i, name, res.MaxResponse, per[i].MRTLBs)
			sumTotal += res.TotalResponse
			sumMax += res.MaxResponse
		}
		r.set("quality.heur_art_vs_lp."+name, float64(sumTotal)/total.ARTBound)
		r.set("quality.heur_mrt_vs_lp."+name, float64(sumMax)/float64(total.MRTLBs))
	}

	// The Fig 6/7 substrate at the paper's scale: 150 ports, M = 150, T = 20.
	rounds := max(20/r.opt.scale, 1)
	paper := &flowsched.Instance{
		Switch: flowsched.UnitSwitch(paperPorts),
		Flows:  genUnitPoisson(rand.New(rand.NewSource(r.opt.seed)), paperPorts*rounds, paperPorts, paperPorts),
	}
	for _, name := range paperHeuristics {
		var err error
		extras("sim.run."+name, func() { _, err = flowsched.Simulate(paper, flowsched.PolicyByName(name)) })
		if err != nil {
			return fmt.Errorf("paper-scale %s: %w", name, err)
		}
		r.set("sim.run_ms."+name, ms("sim.run."+name))
	}

	tr.spans[root].end = tr.now() // the extras ran under the root too
	if err := tr.write(r.opt.outDir); err != nil {
		return err
	}
	tr.printLayers(r.opt.log)
	return nil
}
