package core

import (
	"fmt"
	"math"

	"flowsched/internal/bvn"
	"flowsched/internal/lp"
	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
)

// ARTResult is the outcome of SolveART (Theorem 1).
type ARTResult struct {
	// Schedule is feasible under port capacities scaled by CapFactor.
	Schedule *switchnet.Schedule
	// CapFactor is 1+c: the factor by which every port capacity was
	// augmented.
	CapFactor int
	// LPBound is the optimum of the interval LP (5)-(8), a lower bound on
	// the total response time of any (unaugmented) schedule.
	LPBound float64
	// PseudoTotal is the total response time of the intermediate
	// pseudo-schedule (Lemma 3.3); its cost is at most LPBound's schedule
	// counterpart.
	PseudoTotal int
	// WindowH is the conversion window length h used by the Theorem 1
	// batching; the response-time overhead per flow is at most 2h.
	WindowH int
	// Batches is the number of conversion windows that contained flows.
	Batches int
	// RoundingIterations and ForcedFixes mirror the PseudoSchedule's:
	// LP re-solves of the rounding (O(log n) by Lemma 3.5) and
	// degeneracy-safeguard fixes (0 in practice).
	RoundingIterations int
	ForcedFixes        int
	// LPIterations totals simplex pivots across all iterative-rounding
	// solves.
	LPIterations int
	// LP sums the solver's stage breakdown over the same solves.
	LP lp.Stats
}

// SolveART implements Theorem 1 for unit-demand flows: a schedule whose
// total response time is within an additive O(n log n / c) — hence a
// multiplicative (1 + O(log n)/c) — of the LP lower bound, using port
// capacities scaled by 1+c.
//
// The pipeline is: iterative LP rounding (Lemma 3.3) to a pseudo-schedule,
// its first LP crash-started from a greedy schedule (solveInitialIntervalLP);
// split the timeline into windows of length h; transform each window's
// flows through port replication; Birkhoff-von Neumann edge coloring into
// at most Delta matchings; execute 1+c matchings per round in the following
// window. h is grown geometrically from ceil(log2 n / c) until every
// window's matchings fit, which Lemma 3.7 guarantees at h = O(log n / c).
// LPBound is an optimum and does not depend on how the LP was solved; the
// schedule is rounded from the vertex the started solve ends at, so where
// that optimum is not unique it is one of several the theorem covers.
func SolveART(inst *switchnet.Instance, c int) (*ARTResult, error) {
	if c < 1 {
		return nil, fmt.Errorf("core: capacity augmentation c must be >= 1, got %d", c)
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := requireUnitDemands(inst); err != nil {
		return nil, err
	}
	n := inst.N()
	if n == 0 {
		return &ARTResult{Schedule: switchnet.NewSchedule(0), CapFactor: 1 + c}, nil
	}

	ps, err := IterativeRound(inst)
	if err != nil {
		return nil, err
	}

	h0 := int(math.Ceil(math.Log2(float64(n+2)))) / c
	if h0 < 1 {
		h0 = 1
	}
	var sched *switchnet.Schedule
	var usedH, batches int
	for h := h0; ; h *= 2 {
		sched, batches = convertPseudoSchedule(inst, ps, c, h)
		if sched != nil {
			usedH = h
			break
		}
		if h > 4*(inst.CongestionHorizon()+n) {
			return nil, fmt.Errorf("core: conversion window exceeded %d without fitting", h)
		}
	}
	res := &ARTResult{
		Schedule:           sched,
		CapFactor:          1 + c,
		LPBound:            ps.LPValue,
		PseudoTotal:        ps.TotalResponse(inst),
		WindowH:            usedH,
		Batches:            batches,
		RoundingIterations: ps.RoundingIterations,
		ForcedFixes:        ps.ForcedFixes,
		LPIterations:       ps.LPIterations,
		LP:                 ps.LP,
	}
	if _, err := verify.CheckScaled(inst, sched, 1+c); err != nil {
		return nil, fmt.Errorf("core: converted schedule invalid: %w", err)
	}
	return res, nil
}

// convertPseudoSchedule batches the pseudo-schedule into windows of length
// h and colors each batch into matchings executed in the following window
// with capacity (1+c)*c_p per round. It returns nil if some batch needs
// more than h rounds (caller doubles h).
func convertPseudoSchedule(inst *switchnet.Instance, ps *PseudoSchedule, c, h int) (*switchnet.Schedule, int) {
	batches := make(map[int][]int) // window index -> flow ids
	maxWin := 0
	for f, t := range ps.Round {
		w := t / h
		batches[w] = append(batches[w], f)
		if w > maxWin {
			maxWin = w
		}
	}
	sched := switchnet.NewSchedule(inst.N())
	for w := 0; w <= maxWin; w++ {
		flows := batches[w]
		if len(flows) == 0 {
			continue
		}
		edges := make([][2]int, len(flows))
		for i, f := range flows {
			edges[i] = [2]int{inst.Flows[f].In, inst.Flows[f].Out}
		}
		classes := bvn.Decompose(edges, inst.Switch.InCaps, inst.Switch.OutCaps)
		need := (len(classes) + c) / (1 + c) // ceil(classes/(1+c))
		if need > h {
			return nil, 0
		}
		start := (w + 1) * h
		for k, cls := range classes {
			round := start + k/(1+c)
			for _, i := range cls {
				sched.Round[flows[i]] = round
			}
		}
	}
	return sched, len(batches)
}
