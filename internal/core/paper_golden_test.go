package core

import (
	"math"
	"math/rand"
	"testing"

	"flowsched/internal/switchnet"
)

// paperInstance rebuilds the shape of the benchmark's offline_paper
// generator (Section 5.2.1): a unit ports x ports switch and exactly
// flows unit flows with uniform endpoints and releases uniform on
// [0, rounds).
func paperInstance(seed int64, ports, rounds, flows int) *switchnet.Instance {
	r := rand.New(rand.NewSource(seed))
	fl := make([]switchnet.Flow, flows)
	for j := range fl {
		fl[j] = switchnet.Flow{In: r.Intn(ports), Out: r.Intn(ports), Demand: 1, Release: r.Intn(rounds)}
	}
	return &switchnet.Instance{Switch: switchnet.UnitSwitch(ports), Flows: fl}
}

// TestPaperModelGolden pins what the LP pipeline computes on seeded
// paper-model instances. Everything but lbPivots was recorded with the
// dense-LU solver this repository shipped before internal/lp's sparse
// factorisation and is unchanged by it: a basis kernel may change what a
// solve costs, never the optimum, the horizon, or the schedule SolveART
// rounds out of it. LP (1)-(4) is degenerate enough that its duals carry
// thirds, so which of two equal reduced costs reads one ulp larger — and
// with it the path to the optimum, not the optimum — depends on the
// kernel's order of operations; lbPivots is the sparse kernel's count, the
// dense one's is in the comment beside it. The interval LPs of SolveART
// have 0/1 bases whose solves are exact, and their counts did not move.
func TestPaperModelGolden(t *testing.T) {
	cases := []struct {
		name                 string
		seed                 int64
		ports, rounds, flows int

		lbObj               float64
		lbHorizon, lbPivots int
		artLPBound          float64
		artTotal, artPivots int
	}{
		{"5x5_25/seed1", 1, 5, 5, 25, 50.5, 16, 136 /* dense 136 */, 30.5, 141, 94},
		{"5x5_25/seed2", 2, 5, 5, 25, 40.5, 14, 176 /* dense 161 */, 13.5, 116, 58},
		{"10x10_100/seed1", 1, 10, 10, 100, 232, 28, 2799 /* dense 2673 */, 127, 753, 499},
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
			art, err := SolveART(inst, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := art.Schedule.TotalResponse(inst); math.Abs(art.LPBound-c.artLPBound) > 1e-9 || got != c.artTotal || art.LPIterations != c.artPivots {
				t.Errorf("SolveART = (LP bound %v, total %d, %d pivots), want (%v, %d, %d)",
					art.LPBound, got, art.LPIterations, c.artLPBound, c.artTotal, c.artPivots)
			}
			if got := art.LP.Pivots(); got != art.LPIterations {
				t.Errorf("SolveART stats %+v do not add up to %d pivots", art.LP, art.LPIterations)
			}
		})
	}
}
