package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"flowsched/internal/lp"
	"flowsched/internal/switchnet"
)

// fallbackInstance is one where the first-fit horizon is too short: first
// fit ends at round 4, LP (1)-(4) over [r_e, 4) has optimum 5.5, and the
// full LP, which moves a demand-2 flow's second unit past round 4, has 5.
// Found by search over random instances with capacities 1-3 and demands 1-2.
func fallbackInstance() *switchnet.Instance {
	return &switchnet.Instance{
		Switch: switchnet.Switch{InCaps: []int{3, 2}, OutCaps: []int{1, 2}},
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 2}, {In: 0, Out: 1, Demand: 2, Release: 2}, {In: 1, Out: 1, Demand: 2, Release: 1},
			{In: 0, Out: 1, Demand: 2, Release: 2}, {In: 1, Out: 0, Demand: 1, Release: 1},
		},
	}
}

// TestARTLowerBoundFallsBack: where the duals of the first-fit horizon's
// optimum leave a later round priced in, that optimum is not the LP's, and
// ARTLowerBound solves once more at the congestion horizon and reports both
// solves.
func TestARTLowerBoundFallsBack(t *testing.T) {
	inst := fallbackInstance()
	full := inst.CongestionHorizon()
	placed := firstFit(inst, releaseOrder(inst), fromRelease(inst, full), 1)
	short := fitHorizon(inst, placed, 1, full)
	p, start := artLowerBoundLP(inst, short, placed)
	atShort, err := p.SolveWith(lp.SolveOptions{Start: start})
	if err != nil || atShort.Status != lp.Optimal {
		t.Fatalf("LP at the first-fit horizon %d: %+v, %v", short, atShort, err)
	}
	p, _ = artLowerBoundLP(inst, full, nil)
	atFull, err := p.Solve()
	if err != nil || atFull.Status != lp.Optimal {
		t.Fatalf("LP at the congestion horizon %d: %+v, %v", full, atFull, err)
	}
	if short != 4 || full != 8 || atShort.Obj != 5.5 || atFull.Obj != 5 || pricedOut(inst, atShort, short, artCost) {
		t.Fatalf("horizons %d and %d, optima %v and %v, certified %v: the instance no longer needs the fallback",
			short, full, atShort.Obj, atFull.Obj, pricedOut(inst, atShort, short, artCost))
	}
	lb, err := ARTLowerBound(inst)
	if err != nil {
		t.Fatal(err)
	}
	if lb.Horizon != full || math.Abs(lb.TotalResponse-atFull.Obj) > 1e-9 ||
		lb.LP.Rows != atShort.Stats.Rows+atFull.Stats.Rows || lb.Iterations != lb.LP.Pivots() {
		t.Errorf("ARTLowerBound = (%v, horizon %d, %+v), want (%v, horizon %d) from two solves of %d and %d rows",
			lb.TotalResponse, lb.Horizon, lb.LP, atFull.Obj, full, atShort.Stats.Rows, atFull.Stats.Rows)
	}
}

// fuzzARTInstance decodes a small instance: 1-3 ports a side with
// capacities 1-3, then one flow per two bytes — endpoints, a release in
// [0, 6) and a demand of 1 or 2, at most kappa_e — up to 16 flows.
func fuzzARTInstance(data []byte) *switchnet.Instance {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	ports := 1 + next()%3
	sw := switchnet.NewSwitch(ports, ports, 1)
	for i := range sw.InCaps {
		sw.InCaps[i], sw.OutCaps[i] = 1+next()%3, 1+next()%3
	}
	inst := &switchnet.Instance{Switch: sw}
	for len(data) >= 2 && inst.N() < 16 {
		a, b := next(), next()
		e := switchnet.Flow{In: a % ports, Out: a / ports % ports, Release: b % 6}
		e.Demand = min(1+b/6%2, sw.InCaps[e.In], sw.OutCaps[e.Out])
		inst.Flows = append(inst.Flows, e)
	}
	return inst
}

// FuzzARTLowerBound: whatever horizon ARTLowerBound settles on, its optimum
// is the full LP's — a cold solve of LP (1)-(4) at the congestion horizon —
// and the horizon lies in [MaxRelease+1, CongestionHorizon].
func FuzzARTLowerBound(f *testing.F) {
	// fallbackInstance, encoded.
	f.Add([]byte{1, 2, 0, 1, 1, 0, 2, 2, 8, 3, 7, 2, 8, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1})
	f.Add([]byte{2, 1, 2, 0, 1, 2, 2, 5, 6, 4, 11, 7, 0, 8, 3, 1, 9, 2, 6, 3, 7, 0, 1, 4, 8})
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 8; i++ {
		data := make([]byte, 7+2*(2+rng.Intn(14)))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inst := fuzzARTInstance(data)
		if inst.N() == 0 {
			return
		}
		if err := inst.Validate(); err != nil {
			t.Fatalf("decoded an invalid instance: %v", err)
		}
		full := inst.CongestionHorizon()
		p, _ := artLowerBoundLP(inst, full, nil)
		want, err := p.Solve()
		if err != nil || want.Status != lp.Optimal {
			t.Fatalf("cold LP at the congestion horizon %d: %+v, %v", full, want, err)
		}
		lb, err := ARTLowerBound(inst)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lb.TotalResponse-want.Obj) > 1e-9 || lb.Horizon <= inst.MaxRelease() || lb.Horizon > full {
			t.Fatalf("%+v: ARTLowerBound (%v, horizon %d), cold solve at %d gives %v", *inst, lb.TotalResponse, lb.Horizon, full, want.Obj)
		}
	})
}

// TestSolveMRTIsFirstFitWhereItPlacesEveryFlow is the differential test of
// the search without an LP: on offline_paper-shaped instances and on
// multi-unit ones, rho is the linear scan of LP feasibility, and wherever
// first fit places every flow at rho, SolveMRT's schedule is the rounding of
// LP (19)-(21) built and solved at rho, with no LP counted for it.
func TestSolveMRTIsFirstFitWhereItPlacesEveryFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var insts []*switchnet.Instance
	for seed := int64(1); seed <= 64; seed++ {
		insts = append(insts, paperInstance(seed, 5, 5, 25))
	}
	for i := 0; i < 24; i++ {
		insts = append(insts, crashInstance(rng, 2+rng.Intn(3), 1+rng.Intn(4), 4+rng.Intn(16), 3, 2))
	}
	fit, built := 0, 0
	for i, inst := range insts {
		mrt, err := SolveMRT(inst)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if want := coldRho(t, inst); mrt.Rho != want {
			t.Fatalf("instance %d: rho %d, linear scan of the LP %d", i, mrt.Rho, want)
		}
		if (mrt.LPs == 0) != (mrt.LP == lp.Stats{} && mrt.SearchLP == lp.Stats{}) {
			t.Fatalf("instance %d: %d LPs counted, stats %+v at rho and %+v elsewhere", i, mrt.LPs, mrt.LP, mrt.SearchLP)
		}
		win := ResponseWindows(inst, mrt.Rho)
		placed := firstFit(inst, releaseOrder(inst), win, 1)
		if !placedAll(placed) {
			built++
			continue
		}
		fit++
		m := timeConstrainedLP(inst, win, placed)
		sol, err := m.solve()
		if err != nil || sol.Status != lp.Optimal || sol.Iterations != 0 {
			t.Fatalf("instance %d: LP at rho from a start that places every flow: %+v, %v", i, sol, err)
		}
		want, err := roundWindowLP(inst, m, sol)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if !slices.Equal(mrt.Schedule.Round, want.Schedule.Round) || mrt.LP != (lp.Stats{}) || mrt.LPIterations != 0 || mrt.CapIncrease != want.CapIncrease {
			t.Fatalf("instance %d: SolveMRT schedule %v with %+v; the LP at rho rounds to %v", i, mrt.Schedule.Round, mrt.LP, want.Schedule.Round)
		}
	}
	if fit == 0 || built == 0 {
		t.Errorf("rho answered by first fit on %d instances and by an LP on %d: a path went untested", fit, built)
	}
}
