package core

import (
	"math"
	"math/rand"
	"testing"

	"flowsched/internal/lp"
	"flowsched/internal/switchnet"
)

// paperInstances rebuilds the benchmark's offline_paper generator
// (Section 5.2.1): count instances drawn one after another from one seeded
// stream, each a unit ports x ports switch and exactly flows unit flows
// with uniform endpoints and releases uniform on [0, rounds).
func paperInstances(seed int64, count, ports, rounds, flows int) []*switchnet.Instance {
	r := rand.New(rand.NewSource(seed))
	insts := make([]*switchnet.Instance, count)
	for i := range insts {
		fl := make([]switchnet.Flow, flows)
		for j := range fl {
			fl[j] = switchnet.Flow{In: r.Intn(ports), Out: r.Intn(ports), Demand: 1, Release: r.Intn(rounds)}
		}
		insts[i] = &switchnet.Instance{Switch: switchnet.UnitSwitch(ports), Flows: fl}
	}
	return insts
}

// paperInstance is the first of paperInstances' draws from seed.
func paperInstance(seed int64, ports, rounds, flows int) *switchnet.Instance {
	return paperInstances(seed, 1, ports, rounds, flows)[0]
}

// TestPaperModelGolden pins what the LP pipeline computes on seeded
// paper-model instances. lbObj, artLPBound and rho are optima: they were
// recorded with the dense-LU solver this repository first shipped and have
// survived the sparse factorisation, the crash start, the crash basis and the
// first-fit horizon — a basis kernel, a starting point or a horizon the duals
// certify may change what a solve costs, never the optimum. lbHorizon is the
// horizon LP (1)-(4) was solved over, the round after the last one first fit
// uses (16/14/28, the congestion horizon, before it became the fallback).
// The pivot counts and artTotal are what the solves cost and where they end
// today, all LPs started from a greedy schedule with its flows in the
// starting basis; the counts of the solves before that are in the comments
// beside them (LP (1)-(4): at the congestion horizon, then with an all-slack
// start; the interval LP: cold). artTotal moves with the start because the
// interval LP's optimum is not unique and the schedule is rounded from the
// vertex the solve ends at. (LP (1)-(4) is degenerate enough that its duals
// carry thirds, so the path to the optimum, not the optimum, moves with the
// order of floating-point operations.) rho and the SolveMRT stats pin "no LP
// at all": first fit places every flow inside its rho window on these
// instances, so rho is answered, and the schedule given, by that placement
// (no LP built, LP and SearchLP empty), and the volume bound the search
// starts from is rho itself. Before the crash start the same call spent
// 105/123/1004 pivots on the LP at rho — twice, once in the search and once
// more to round.
func TestPaperModelGolden(t *testing.T) {
	cases := []struct {
		name                 string
		seed                 int64
		ports, rounds, flows int

		lbObj               float64
		lbHorizon, lbPivots int
		artLPBound          float64
		artTotal, artPivots int
		rho                 int
	}{
		{"5x5_25/seed1", 1, 5, 5, 25, 50.5, 10, 55 /* at horizon 16: 55, all-slack start 80, cold 136, dense 136 */, 30.5, 139 /* cold 141 */, 9 /* cold 94 */, 6},
		{"5x5_25/seed2", 2, 5, 5, 25, 40.5, 8, 51 /* at horizon 14: 51, all-slack start 73, cold 176, dense 161 */, 13.5, 116 /* cold 116 */, 1 /* cold 58 */, 4},
		{"10x10_100/seed1", 1, 10, 10, 100, 232, 18, 1217 /* at horizon 28: 1454, all-slack start 1364, cold 2799, dense 2673 */, 127, 746 /* cold 753 */, 85 /* cold 499 */, 9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inst := paperInstance(c.seed, c.ports, c.rounds, c.flows)
			lb, err := ARTLowerBound(inst)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(lb.TotalResponse-c.lbObj) > 1e-9 || lb.Horizon != c.lbHorizon || lb.Iterations != c.lbPivots {
				t.Errorf("ARTLowerBound = (%v, horizon %d, %d pivots), want (%v, %d, %d)",
					lb.TotalResponse, lb.Horizon, lb.Iterations, c.lbObj, c.lbHorizon, c.lbPivots)
			}
			if got := lb.LP.Pivots(); got != lb.Iterations || lb.LP.Rows == 0 || lb.LP.PeakLUNonzeros < lb.LP.Rows {
				t.Errorf("ARTLowerBound stats %+v do not add up to %d pivots", lb.LP, lb.Iterations)
			}
			if lb.LP.Phase1Pivots != 0 || lb.LP.StartAtUpper != c.flows || lb.LP.StartBasic != c.flows {
				t.Errorf("ARTLowerBound stats %+v: want all %d flows placed by the crash start, in the basis, and no phase-1 pivot", lb.LP, c.flows)
			}
			art, err := SolveART(inst, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := art.Schedule.TotalResponse(inst); math.Abs(art.LPBound-c.artLPBound) > 1e-9 || got != c.artTotal || art.LPIterations != c.artPivots {
				t.Errorf("SolveART = (LP bound %v, total %d, %d pivots), want (%v, %d, %d)",
					art.LPBound, got, art.LPIterations, c.artLPBound, c.artTotal, c.artPivots)
			}
			if got := art.LP.Pivots(); got != art.LPIterations || art.LP.Phase1Pivots != 0 || art.LP.StartAtUpper != c.flows {
				t.Errorf("SolveART stats %+v: want %d pivots, none of them in phase 1, from a start that places all %d flows", art.LP, art.LPIterations, c.flows)
			}
			mrt, err := SolveMRT(inst)
			if err != nil {
				t.Fatal(err)
			}
			if mrt.Rho != c.rho || mrt.LPIterations != 0 || mrt.LP != (lp.Stats{}) || mrt.SearchLP != (lp.Stats{}) || mrt.LPs != 0 {
				t.Errorf("SolveMRT = (rho %d, %d pivots at rho %+v, search %+v, %d LPs), want rho %d with no LP built",
					mrt.Rho, mrt.LPIterations, mrt.LP, mrt.SearchLP, mrt.LPs, c.rho)
			}
		})
	}
}
