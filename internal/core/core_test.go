package core

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
	"flowsched/internal/workload"
)

// poissonish returns a random unit-demand instance on an m x m unit switch
// with about lambda arrivals per round for T rounds.
func poissonish(rng *rand.Rand, m, lambda, T int) *switchnet.Instance {
	inst := &switchnet.Instance{Switch: switchnet.UnitSwitch(m)}
	for t := 0; t < T; t++ {
		k := rng.Intn(2*lambda + 1) // mean lambda
		for i := 0; i < k; i++ {
			inst.Flows = append(inst.Flows, switchnet.Flow{
				In:      rng.Intn(m),
				Out:     rng.Intn(m),
				Demand:  1,
				Release: t,
			})
		}
	}
	return inst
}

// greedyEarliest schedules each flow (in release order) at the earliest
// round with free capacity. Used as a feasible-schedule reference.
func greedyEarliest(inst *switchnet.Instance) *switchnet.Schedule {
	s := switchnet.NewSchedule(inst.N())
	caps := inst.Switch.Caps()
	used := make(map[int][]int)
	for f, e := range inst.Flows {
		pIn := inst.Switch.PortIndex(switchnet.In, e.In)
		pOut := inst.Switch.PortIndex(switchnet.Out, e.Out)
		for t := e.Release; ; t++ {
			row, ok := used[t]
			if !ok {
				row = make([]int, inst.Switch.NumPorts())
				used[t] = row
			}
			if row[pIn]+e.Demand <= caps[pIn] && row[pOut]+e.Demand <= caps[pOut] {
				row[pIn] += e.Demand
				row[pOut] += e.Demand
				s.Round[f] = t
				break
			}
		}
	}
	return s
}

func TestSolveMRTSimpleConflict(t *testing.T) {
	// Two flows sharing one output port, released together: optimal max
	// response is 2.
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 1, Release: 0},
		},
	}
	res, err := SolveMRT(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho != 2 {
		t.Fatalf("rho = %d, want 2", res.Rho)
	}
	if got := res.Schedule.MaxResponse(inst); got > 2 {
		t.Fatalf("max response = %d > 2", got)
	}
	if res.ForcedDrops != 0 {
		t.Fatalf("forced drops = %d", res.ForcedDrops)
	}
}

func TestSolveMRTNoConflict(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(3),
		Flows: []switchnet.Flow{
			{In: 0, Out: 1, Demand: 1, Release: 0},
			{In: 1, Out: 2, Demand: 1, Release: 0},
			{In: 2, Out: 0, Demand: 1, Release: 0},
		},
	}
	res, err := SolveMRT(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho != 1 {
		t.Fatalf("rho = %d, want 1 (perfect matching)", res.Rho)
	}
}

func TestSolveMRTEmpty(t *testing.T) {
	inst := &switchnet.Instance{Switch: switchnet.UnitSwitch(2)}
	res, err := SolveMRT(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho != 0 {
		t.Fatalf("rho = %d, want 0", res.Rho)
	}
}

func TestSolveMRTRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		m := 2 + rng.Intn(3)
		inst := poissonish(rng, m, 1+rng.Intn(2), 3+rng.Intn(3))
		if inst.N() == 0 {
			continue
		}
		res, err := SolveMRT(inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if _, err := verify.CheckAugmented(inst, res.Schedule, 2*inst.MaxDemand()-1); err != nil {
			t.Fatalf("trial %d: invalid: %v", trial, err)
		}
		if got := res.Schedule.MaxResponse(inst); got > res.Rho {
			t.Fatalf("trial %d: max response %d > rho %d", trial, got, res.Rho)
		}
		if lb := TrivialMRTLowerBound(inst); res.Rho < lb {
			t.Fatalf("trial %d: rho %d below trivial bound %d", trial, res.Rho, lb)
		}
		if res.ForcedDrops != 0 {
			t.Fatalf("trial %d: forced drops %d", trial, res.ForcedDrops)
		}
	}
}

func TestSolveMRTGeneralDemands(t *testing.T) {
	// Demands up to 3 on a capacity-3 switch; augmentation budget is
	// 2*dmax-1 = 5.
	rng := rand.New(rand.NewSource(5))
	inst := &switchnet.Instance{Switch: switchnet.NewSwitch(3, 3, 3)}
	for i := 0; i < 15; i++ {
		inst.Flows = append(inst.Flows, switchnet.Flow{
			In:      rng.Intn(3),
			Out:     rng.Intn(3),
			Demand:  1 + rng.Intn(3),
			Release: rng.Intn(4),
		})
	}
	res, err := SolveMRT(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.CheckAugmented(inst, res.Schedule, 2*inst.MaxDemand()-1); err != nil {
		t.Fatal(err)
	}
	if res.CapIncrease != 2*inst.MaxDemand()-1 {
		t.Fatalf("cap increase = %d", res.CapIncrease)
	}
}

func TestDeadlineWindows(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 1, Release: 0},
		},
	}
	// Deadlines allow rounds {0,1} for both: feasible.
	win, err := DeadlineWindows(inst, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveTimeConstrained(inst, win)
	if err != nil {
		t.Fatal(err)
	}
	for f, r := range res.Schedule.Round {
		if r < 0 || r > 1 {
			t.Fatalf("flow %d at round %d outside window", f, r)
		}
	}

	// A single round for both conflicting flows: LP infeasible.
	win2, err := DeadlineWindows(inst, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveTimeConstrained(inst, win2); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestDeadlineWindowsValidation(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(1),
		Flows:  []switchnet.Flow{{In: 0, Out: 0, Demand: 1, Release: 5}},
	}
	if _, err := DeadlineWindows(inst, []int{3}); err == nil {
		t.Fatal("deadline before release accepted")
	}
	if _, err := DeadlineWindows(inst, []int{5, 6}); err == nil {
		t.Fatal("wrong deadline count accepted")
	}
}

func TestIterativeRoundProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		inst := poissonish(rng, 3, 2, 4)
		if inst.N() == 0 {
			continue
		}
		ps, err := IterativeRound(inst)
		if err != nil {
			t.Fatal(err)
		}
		if ps.ForcedFixes != 0 {
			t.Fatalf("trial %d: forced fixes %d", trial, ps.ForcedFixes)
		}
		for f, r := range ps.Round {
			if r == switchnet.Unscheduled {
				t.Fatalf("trial %d: flow %d unassigned", trial, f)
			}
			if r < inst.Flows[f].Release {
				t.Fatalf("trial %d: flow %d at %d before release %d", trial, f, r, inst.Flows[f].Release)
			}
		}
		// Pseudo-schedule cost is bounded below by the LP and below by n.
		total := ps.TotalResponse(inst)
		if float64(total) < ps.LPValue-1e-6 {
			t.Fatalf("trial %d: pseudo total %d below LP %v", trial, total, ps.LPValue)
		}
		// LP value lower-bounds any feasible schedule's cost.
		greedy := greedyEarliest(inst)
		if float64(greedy.TotalResponse(inst)) < ps.LPValue-1e-6 {
			t.Fatalf("trial %d: greedy beats LP bound", trial)
		}
	}
}

// maxIntervalOverload is the largest load - c_p*length over ports and
// intervals of rounds, for an assignment of unit flows to rounds.
func maxIntervalOverload(inst *switchnet.Instance, round []int) int {
	horizon := 0
	for _, r := range round {
		horizon = max(horizon, r+1)
	}
	numPorts := inst.Switch.NumPorts()
	loads := make([]int, horizon*numPorts)
	for f, r := range round {
		e := inst.Flows[f]
		loads[r*numPorts+inst.Switch.PortIndex(switchnet.In, e.In)]++
		loads[r*numPorts+inst.Switch.PortIndex(switchnet.Out, e.Out)]++
	}
	worst := 0
	for p := 0; p < numPorts; p++ {
		cp := inst.Switch.Cap(p)
		for t1 := 0; t1 < horizon; t1++ {
			sum := 0
			for t2 := t1; t2 < horizon; t2++ {
				sum += loads[t2*numPorts+p]
				worst = max(worst, sum-cp*(t2-t1+1))
			}
		}
	}
	return worst
}

// TestIterativeRoundOverloadBound is Lemma 3.3(3) as a growth guard: over
// seeded Poisson instances of about 20, 40 and 80 flows on 5 ports, no
// port's load over any interval exceeds c_p*length by more than
// 8*c_p*ceil(log2(n+2)), and the rounding never needs its degeneracy
// safeguard. Measured overloads are 4 to 6 at c_p = 1; the constant is
// generous on purpose, the logarithm is the claim.
func TestIterativeRoundOverloadBound(t *testing.T) {
	for _, n := range []int{20, 40, 80} {
		for seed := 0; seed < 10; seed++ {
			rng := rand.New(rand.NewSource(int64(seed) + 61))
			inst := workload.PoissonConfig{M: float64(n) / 6, T: 6, Ports: 5}.Generate(rng)
			if inst.N() == 0 {
				continue
			}
			ps, err := IterativeRound(inst)
			if err != nil {
				t.Fatalf("n~%d seed %d: %v", n, seed, err)
			}
			if ps.ForcedFixes != 0 {
				t.Errorf("n~%d seed %d: %d forced fixes", n, seed, ps.ForcedFixes)
			}
			bound := 8 * int(math.Ceil(math.Log2(float64(inst.N()+2))))
			if over := maxIntervalOverload(inst, ps.Round); over > bound {
				t.Errorf("n~%d seed %d: interval overload %d > %d (n = %d, %d rounding iterations)",
					n, seed, over, bound, inst.N(), ps.RoundingIterations)
			}
		}
	}
}

func TestSolveARTSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inst := poissonish(rng, 3, 2, 4)
	for _, c := range []int{1, 2} {
		res, err := SolveART(inst, c)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		if _, err := verify.CheckScaled(inst, res.Schedule, 1+c); err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		if res.ForcedFixes != 0 {
			t.Fatalf("c=%d: forced fixes %d", c, res.ForcedFixes)
		}
		total := res.Schedule.TotalResponse(inst)
		if float64(total) < res.LPBound-1e-6 {
			t.Fatalf("c=%d: schedule total %d below LP bound %v", c, total, res.LPBound)
		}
		// The conversion adds at most 2h per flow over the pseudo-schedule.
		if total > res.PseudoTotal+2*res.WindowH*inst.N()+inst.N() {
			t.Fatalf("c=%d: conversion overhead too large: %d vs pseudo %d (h=%d)",
				c, total, res.PseudoTotal, res.WindowH)
		}
	}
}

func TestSolveARTRejectsBadInput(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.NewSwitch(2, 2, 2),
		Flows:  []switchnet.Flow{{In: 0, Out: 0, Demand: 2, Release: 0}},
	}
	if _, err := SolveART(inst, 1); err == nil {
		t.Fatal("non-unit demands accepted")
	}
	unit := &switchnet.Instance{Switch: switchnet.UnitSwitch(2),
		Flows: []switchnet.Flow{{In: 0, Out: 0, Demand: 1, Release: 0}}}
	if _, err := SolveART(unit, 0); err == nil {
		t.Fatal("c=0 accepted")
	}
}

func TestARTLowerBoundSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inst := poissonish(rng, 3, 2, 3)
	if inst.N() == 0 {
		t.Skip("empty draw")
	}
	lb, err := ARTLowerBound(inst)
	if err != nil {
		t.Fatal(err)
	}
	// Lemma 3.1: LP <= total response of any schedule.
	greedy := greedyEarliest(inst)
	if float64(greedy.TotalResponse(inst)) < lb.TotalResponse-1e-6 {
		t.Fatalf("greedy %d beats LP bound %v", greedy.TotalResponse(inst), lb.TotalResponse)
	}
	// Each flow contributes at least ~1/2 (t=r term: 0 + 1/(2kappa)).
	if lb.TotalResponse <= 0 {
		t.Fatalf("bound %v not positive", lb.TotalResponse)
	}
}

func TestSRPTLowerBound(t *testing.T) {
	// Three flows into one output port, all released at 0, unit demand:
	// responses at the port are at least 1+2+3 = 6.
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(3),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 1, Release: 0},
			{In: 2, Out: 0, Demand: 1, Release: 0},
		},
	}
	if got := SRPTLowerBound(inst); got != 6 {
		t.Fatalf("SRPT bound = %d, want 6", got)
	}
	if got := SRPTLowerBound(&switchnet.Instance{Switch: switchnet.UnitSwitch(1)}); got != 0 {
		t.Fatalf("empty bound = %d", got)
	}
}

func TestSRPTLowerBoundIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		inst := poissonish(rng, 3, 2, 4)
		if inst.N() == 0 {
			continue
		}
		lb := SRPTLowerBound(inst)
		greedy := greedyEarliest(inst)
		if greedy.TotalResponse(inst) < lb {
			t.Fatalf("trial %d: greedy %d < SRPT bound %d", trial, greedy.TotalResponse(inst), lb)
		}
	}
}

func TestTrivialMRTLowerBound(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 1, Release: 0},
			{In: 0, Out: 1, Demand: 1, Release: 0},
		},
	}
	// Output port 0 receives 2 unit flows at release 0 => rho >= 2.
	if got := TrivialMRTLowerBound(inst); got != 2 {
		t.Fatalf("bound = %d, want 2", got)
	}
}

// trivialMRTLowerBoundRef is TrivialMRTLowerBound as it was first written:
// one event list per port, each sorted by release on its own.
func trivialMRTLowerBoundRef(inst *switchnet.Instance) int {
	if inst.N() == 0 {
		return 0
	}
	best := 1
	type ev struct{ release, demand int }
	numPorts := inst.Switch.NumPorts()
	byPort := make([][]ev, numPorts)
	for _, e := range inst.Flows {
		pIn := inst.Switch.PortIndex(switchnet.In, e.In)
		pOut := inst.Switch.PortIndex(switchnet.Out, e.Out)
		byPort[pIn] = append(byPort[pIn], ev{e.Release, e.Demand})
		byPort[pOut] = append(byPort[pOut], ev{e.Release, e.Demand})
	}
	for p := 0; p < numPorts; p++ {
		evs := byPort[p]
		sort.Slice(evs, func(a, b int) bool { return evs[a].release < evs[b].release })
		cap := inst.Switch.Cap(p)
		for i := 0; i < len(evs); i++ {
			load := 0
			for j := i; j < len(evs); j++ {
				load += evs[j].demand
				spread := evs[j].release - evs[i].release
				if rho := (load+cap-1)/cap - spread; rho > best {
					best = rho
				}
			}
		}
	}
	return best
}

// TestTrivialMRTLowerBoundMatchesReference holds the one-sort bound to the
// per-port reference on random instances full of tied releases, with
// multi-unit demands, unequal port counts and capacities above one.
func TestTrivialMRTLowerBoundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 500; trial++ {
		in, out := 1+rng.Intn(5), 1+rng.Intn(5)
		sw := switchnet.Switch{InCaps: make([]int, in), OutCaps: make([]int, out)}
		minCap := 4
		for _, caps := range [][]int{sw.InCaps, sw.OutCaps} {
			for i := range caps {
				caps[i] = 1 + rng.Intn(4)
				minCap = min(minCap, caps[i])
			}
		}
		inst := &switchnet.Instance{Switch: sw, Flows: make([]switchnet.Flow, rng.Intn(40))}
		span := 1 + rng.Intn(6)
		for f := range inst.Flows {
			inst.Flows[f] = switchnet.Flow{In: rng.Intn(in), Out: rng.Intn(out), Demand: 1 + rng.Intn(minCap), Release: rng.Intn(span)}
		}
		if err := inst.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got, want := TrivialMRTLowerBound(inst), trivialMRTLowerBoundRef(inst); got != want {
			t.Fatalf("trial %d: bound %d, reference %d, instance %+v", trial, got, want, inst)
		}
	}
}

func TestOnlineAMRT(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 5; trial++ {
		inst := poissonish(rng, 3, 1, 4)
		if inst.N() == 0 {
			continue
		}
		res, err := OnlineAMRT(inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Schedule.Complete() {
			t.Fatalf("trial %d: incomplete schedule", trial)
		}
		if _, err := verify.CheckSchedule(inst, res.Schedule, AMRTCaps(inst)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := res.Schedule.MaxResponse(inst); got > 2*res.FinalRho {
			t.Fatalf("trial %d: max response %d > 2*rho = %d", trial, got, 2*res.FinalRho)
		}
	}
}

func TestOnlineAMRTEmpty(t *testing.T) {
	res, err := OnlineAMRT(&switchnet.Instance{Switch: switchnet.UnitSwitch(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedule.Complete() || len(res.Schedule.Round) != 0 {
		t.Fatal("empty instance mishandled")
	}
}
