package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"flowsched"
)

// offlineSetups is how many times offline_paper sets up: instance build
// plus a warm-up pass of the pipeline over the first offlineWarm
// instances (one instance alone costs +-25 % from seed to seed).
const (
	offlineSetups = 3
	offlineWarm   = 16
)

// pipelineResult is what one pass of the paper's pipeline over all the
// instances produced; every field is a function of the instances alone.
type pipelineResult struct {
	Flows                    int
	ARTTotal, RhoSum, MRTLBs int
	ARTBound, AvgSum         float64
	PivotsLB, PivotsART      int
}

// stage times one public call of the pipeline; the traced run hands in a
// span-recording one, the end-to-end run a plain call.
type stage func(name string, f func())

func plainStage(_ string, f func()) { f() }

// pipeline runs the paper's offline pipeline over every instance —
// ARTLowerBound, SolveART(c=1) checked at 2x capacity, MRTLowerBound,
// SolveMRT checked at +2*d_max-1 — and applies the output checks.
func (r *run) pipeline(insts []*flowsched.Instance, st stage) (pipelineResult, error) {
	var res pipelineResult
	for i, inst := range insts {
		var (
			lb  *flowsched.ARTLowerBoundResult
			art *flowsched.ARTResult
			mrt *flowsched.MRTResult
			rho int
			err error
		)
		st("core.art_lb", func() { lb, err = flowsched.ARTLowerBound(inst) })
		if err != nil {
			return res, fmt.Errorf("instance %d: ARTLowerBound: %w", i, err)
		}
		st("core.solve_art", func() { art, err = flowsched.SolveART(inst, 1) })
		if err != nil {
			return res, fmt.Errorf("instance %d: SolveART: %w", i, err)
		}
		st("verify.check_offline", func() { _, err = flowsched.CheckScaled(inst, art.Schedule, art.CapFactor) })
		r.check(err == nil, "instance %d: oracle rejects the SolveART schedule at %dx capacity: %v", i, art.CapFactor, err)
		st("core.mrt_lb", func() { rho, err = flowsched.MRTLowerBound(inst) })
		if err != nil {
			return res, fmt.Errorf("instance %d: MRTLowerBound: %w", i, err)
		}
		st("core.solve_mrt", func() { mrt, err = flowsched.SolveMRT(inst) })
		if err != nil {
			return res, fmt.Errorf("instance %d: SolveMRT: %w", i, err)
		}
		_, err = flowsched.CheckAugmented(inst, mrt.Schedule, 2*inst.MaxDemand()-1)
		r.check(err == nil, "instance %d: oracle rejects the SolveMRT schedule at +2*d_max-1: %v", i, err)
		r.check(mrt.Rho == rho, "instance %d: SolveMRT rho %d differs from MRTLowerBound %d (Theorem 3)", i, mrt.Rho, rho)
		r.check(mrt.Schedule.MaxResponse(inst) <= mrt.Rho, "instance %d: SolveMRT schedule exceeds its rho", i)

		res.Flows += inst.N()
		res.ARTTotal += art.Schedule.TotalResponse(inst)
		res.ARTBound += lb.TotalResponse
		res.AvgSum += art.Schedule.AvgResponse(inst)
		res.RhoSum += mrt.Rho
		res.MRTLBs += rho
		res.PivotsLB += lb.Iterations
		res.PivotsART += art.LPIterations
	}
	r.attempted += int64(res.Flows)
	return res, nil
}

func (r *run) offlineInstances() []*flowsched.Instance {
	w := r.w
	start := time.Now()
	insts := genOffline(rand.New(rand.NewSource(r.opt.seed)), max(w.instances/r.opt.scale, 2), w.ports, w.rounds, w.perInstance)
	r.set("bench.generate_s", time.Since(start).Seconds())
	return insts
}

// offlineSetup validates the instances and warms the solver up on the
// first offlineWarm of them; its median over offlineSetups passes is
// setup_s.
func (r *run) offlineSetup(insts []*flowsched.Instance) error {
	var setups []sample
	r.ref.pass()
	for i := 0; i < offlineSetups; i++ {
		start := time.Now()
		for j, inst := range insts {
			if err := inst.Validate(); err != nil {
				return fmt.Errorf("instance %d: %w", j, err)
			}
		}
		if _, err := r.pipeline(insts[:min(offlineWarm, len(insts))], plainStage); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, r.ref.since(start))
	}
	r.setSetup(setups)
	return nil
}

// offlineEndToEnd is the untraced run of offline_paper.
func (r *run) offlineEndToEnd() error {
	insts := r.offlineInstances()
	if err := r.offlineSetup(insts); err != nil {
		return err
	}
	runtime.GC()
	var (
		reps  []sample
		first pipelineResult
	)
	r.ref.pass()
	for start := time.Now(); r.measuring(start, len(reps)); {
		var (
			res pipelineResult
			err error
		)
		cost := measure(func() { res, err = r.pipeline(insts, plainStage) })
		if err != nil {
			return err
		}
		if len(reps) == 0 {
			first = res
		}
		r.check(res == first, "repeat %d solved differently: %+v vs %+v", len(reps), res, first)
		reps = append(reps, r.ref.calibrated(cost))
	}
	r.setThroughput(reps, first.Flows)
	count := float64(len(insts))
	r.set("avg_response_rounds", first.AvgSum/count)
	r.set("max_response_rounds", float64(first.RhoSum)/count)
	r.set("art_vs_lb", float64(first.ARTTotal)/first.ARTBound)
	r.set("mrt_vs_lb", float64(first.RhoSum)/float64(first.MRTLBs))
	r.check(!math.IsNaN(first.ARTBound) && first.ARTBound > 0, "LP (1)-(4) bound %v is not positive", first.ARTBound)
	r.logf("%s: %d instances, %d flows per repeat", r.w.name, len(insts), first.Flows)
	return nil
}
