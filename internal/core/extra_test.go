package core

import (
	"math/rand"
	"testing"

	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
)

// TestSolveARTGeneralCapacities exercises the b-matching (port replication)
// path of Theorem 1: unit demands on a switch whose ports have capacity 3.
func TestSolveARTGeneralCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	inst := &switchnet.Instance{Switch: switchnet.NewSwitch(3, 3, 3)}
	for i := 0; i < 40; i++ {
		inst.Flows = append(inst.Flows, switchnet.Flow{
			In: rng.Intn(3), Out: rng.Intn(3), Demand: 1, Release: rng.Intn(4),
		})
	}
	res, err := SolveART(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.CheckScaled(inst, res.Schedule, 2); err != nil {
		t.Fatal(err)
	}
	if float64(res.Schedule.TotalResponse(inst)) < res.LPBound-1e-6 {
		t.Fatal("schedule beats its own lower bound")
	}
}

// TestSolveARTHeterogeneousCapacities uses different capacities per port.
func TestSolveARTHeterogeneousCapacities(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.Switch{InCaps: []int{1, 2, 3}, OutCaps: []int{3, 1, 2}},
	}
	rng := rand.New(rand.NewSource(73))
	for i := 0; i < 25; i++ {
		inst.Flows = append(inst.Flows, switchnet.Flow{
			In: rng.Intn(3), Out: rng.Intn(3), Demand: 1, Release: rng.Intn(3),
		})
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := SolveART(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.CheckScaled(inst, res.Schedule, 3); err != nil {
		t.Fatal(err)
	}
}

// TestNonContiguousWindows exercises the general R(e) model of
// Time-Constrained Flow Scheduling: a flow restricted to rounds {0, 4}.
func TestNonContiguousWindows(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 1, Release: 0},
			{In: 0, Out: 1, Demand: 1, Release: 0},
		},
	}
	win := Windows{
		{0, 4}, // only rounds 0 or 4
		{0},    // only round 0
		{1, 2},
	}
	res, err := SolveTimeConstrained(inst, win)
	if err != nil {
		t.Fatal(err)
	}
	// Flow 1 must take round 0, so flow 0 (sharing output 0) is pushed to
	// round 4 (capacity +1 augmentation cannot help port In=1... it can:
	// budget is 2*dmax-1 = 1 extra unit, so both could share round 0).
	r := res.Schedule.Round
	if r[1] != 0 {
		t.Fatalf("flow 1 at %d, want 0", r[1])
	}
	if r[0] != 0 && r[0] != 4 {
		t.Fatalf("flow 0 at %d, outside its window", r[0])
	}
	if r[2] != 1 && r[2] != 2 {
		t.Fatalf("flow 2 at %d, outside its window", r[2])
	}
}

// TestExactFeasibleWindowsAgainstLP cross-checks the exact window solver
// against the LP relaxation (LP feasible is necessary for exact feasible).
func TestExactFeasibleWindowsAgainstLP(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		inst := &switchnet.Instance{Switch: switchnet.UnitSwitch(2)}
		n := 2 + rng.Intn(4)
		win := make(Windows, n)
		for i := 0; i < n; i++ {
			inst.Flows = append(inst.Flows, switchnet.Flow{
				In: rng.Intn(2), Out: rng.Intn(2), Demand: 1, Release: 0,
			})
			for t0 := 0; t0 < 3; t0++ {
				if rng.Intn(2) == 0 {
					win[i] = append(win[i], t0)
				}
			}
			if len(win[i]) == 0 {
				win[i] = []int{rng.Intn(3)}
			}
		}
		exact := ExactFeasibleWindows(inst, win)
		_, err := SolveTimeConstrained(inst, win)
		lpFeasible := err == nil
		if err != nil && err != ErrInfeasible {
			t.Fatal(err)
		}
		if exact && !lpFeasible {
			t.Fatalf("trial %d: exact feasible but LP infeasible", trial)
		}
	}
}

// TestAMRTGeneralDemands runs the online algorithm with demands up to 3.
func TestAMRTGeneralDemands(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	inst := &switchnet.Instance{Switch: switchnet.NewSwitch(3, 3, 3)}
	for i := 0; i < 12; i++ {
		inst.Flows = append(inst.Flows, switchnet.Flow{
			In: rng.Intn(3), Out: rng.Intn(3), Demand: 1 + rng.Intn(3), Release: rng.Intn(4),
		})
	}
	res, err := OnlineAMRT(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.CheckSchedule(inst, res.Schedule, AMRTCaps(inst)); err != nil {
		t.Fatal(err)
	}
	if res.Schedule.MaxResponse(inst) > 2*res.FinalRho {
		t.Fatal("2*rho guarantee violated")
	}
}

// TestMRTReleaseGaps covers instances whose releases leave idle gaps.
func TestMRTReleaseGaps(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 0, Out: 0, Demand: 1, Release: 10},
			{In: 1, Out: 1, Demand: 1, Release: 20},
		},
	}
	res, err := SolveMRT(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho != 1 {
		t.Fatalf("rho = %d, want 1 (no conflicts across gaps)", res.Rho)
	}
}

// TestIterativeRoundWithStaggeredReleases covers release gaps in the
// interval LP (empty windows, sparse columns).
func TestIterativeRoundWithStaggeredReleases(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 1, Demand: 1, Release: 0},
			{In: 0, Out: 1, Demand: 1, Release: 7},
			{In: 1, Out: 0, Demand: 1, Release: 7},
			{In: 0, Out: 0, Demand: 1, Release: 15},
		},
	}
	ps, err := IterativeRound(inst)
	if err != nil {
		t.Fatal(err)
	}
	for f, r := range ps.Round {
		if r < inst.Flows[f].Release {
			t.Fatalf("flow %d before release", f)
		}
	}
	// With no conflicts, every flow should land on its release round and
	// the LP bound should be exactly n/2 + 0*delays = 4*(0.5).
	if total := ps.TotalResponse(inst); total != 4 {
		t.Fatalf("pseudo total = %d, want 4 (all immediate)", total)
	}
}

// TestSRPTLowerBoundCapacities verifies the bound respects port capacity
// (capacity 2 serves two unit flows per round).
func TestSRPTLowerBoundCapacities(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.NewSwitch(2, 1, 2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 1, Release: 0},
		},
	}
	// Output port capacity 2: both can finish in round 0 => bound = 2.
	if got := SRPTLowerBound(inst); got != 2 {
		t.Fatalf("bound = %d, want 2", got)
	}
	// Capacity 1 forces 1+2 = 3.
	inst.Switch.OutCaps[0] = 1
	if got := SRPTLowerBound(inst); got != 3 {
		t.Fatalf("bound = %d, want 3", got)
	}
}

// TestSRPTLowerBoundLargeDemands checks demand-aware accounting.
func TestSRPTLowerBoundLargeDemands(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.NewSwitch(1, 1, 2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 2, Release: 0},
			{In: 0, Out: 0, Demand: 2, Release: 0},
		},
	}
	// Port speed 2: SRPT finishes one flow per round: responses 1+2 = 3.
	if got := SRPTLowerBound(inst); got != 3 {
		t.Fatalf("bound = %d, want 3", got)
	}
}
