package engine

import (
	"math/rand"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
)

// TestMetamorphicBoundsBelowPolicySchedules: the heuristics respect the
// original capacities, so both lower bounds must sit below every verified
// policy schedule — SRPTLowerBound below its total response and
// MRTLowerBound below its maximum response. This cross-checks three
// independent code paths (simulator, combinatorial bound, LP bound)
// against each other.
func TestMetamorphicBoundsBelowPolicySchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 6; trial++ {
		inst := randomUnitInstance(rng)
		srpt := core.SRPTLowerBound(inst)
		rhoLB, err := core.MRTLowerBound(inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, s := range solversNamed(t, "MaxCard", "MinRTime", "MaxWeight", "StreamFIFO", "OldestFirst") {
			name := s.Name()
			sol, err := s.Solve(inst)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, name, err)
			}
			rep, err := verify.CheckSchedule(inst, sol.Schedule, sol.Caps)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, name, err)
			}
			if rep.TotalResponse < srpt {
				t.Fatalf("trial %d: %s total %d below SRPT bound %d", trial, name, rep.TotalResponse, srpt)
			}
			if rep.MaxResponse < rhoLB {
				t.Fatalf("trial %d: %s max %d below MRT LP bound %d", trial, name, rep.MaxResponse, rhoLB)
			}
		}
	}
}

// TestMetamorphicSRPTBelowVerifiedART: on the paper's workload the FS-ART
// pipeline's conversion overhead keeps its verified total response above
// the combinatorial SRPT relaxation, and above its own LP bound. (Neither
// is a theorem under augmented capacities, but both orderings are stable
// properties of these fixed seeds — a regression here means the pipeline's
// cost model moved.)
func TestMetamorphicSRPTBelowVerifiedART(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		inst := randomUnitInstance(rng)
		sol, err := (ARTSolver{C: 1}).Solve(inst)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep, err := verify.CheckSchedule(inst, sol.Schedule, sol.Caps)
		if err != nil {
			t.Fatalf("seed %d: ART failed the oracle: %v", seed, err)
		}
		if srpt := core.SRPTLowerBound(inst); rep.TotalResponse < srpt {
			t.Fatalf("seed %d: verified ART total %d below SRPT bound %d", seed, rep.TotalResponse, srpt)
		}
		if lb := sol.Stats["lp_bound"]; float64(rep.TotalResponse) < lb {
			t.Fatalf("seed %d: verified ART total %d below its LP bound %.3f", seed, rep.TotalResponse, lb)
		}
	}
}

// TestMetamorphicMRTMatchesBruteForce: on tiny instances the LP-driven
// SolveMRT must agree with exhaustive backtracking — its Rho can never
// exceed the exact optimum (the LP relaxes feasibility), and on these
// instances the relaxation is tight.
func TestMetamorphicMRTMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 8; trial++ {
		m := 2 + rng.Intn(2)
		n := 1 + rng.Intn(5)
		inst := &switchnet.Instance{Switch: switchnet.UnitSwitch(m)}
		for i := 0; i < n; i++ {
			inst.Flows = append(inst.Flows, switchnet.Flow{
				In: rng.Intn(m), Out: rng.Intn(m), Demand: 1, Release: rng.Intn(3),
			})
		}
		res, err := core.SolveMRT(inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		exact := 1
		for !core.ExactMRTFeasible(inst, exact) {
			exact++
			if exact > inst.CongestionHorizon()+4 {
				t.Fatalf("trial %d: brute force found no feasible rho", trial)
			}
		}
		if res.Rho > exact {
			t.Fatalf("trial %d: LP rho %d exceeds exact optimum %d", trial, res.Rho, exact)
		}
		if res.Rho != exact {
			t.Fatalf("trial %d: LP rho %d != brute-force optimum %d (relaxation not tight here)",
				trial, res.Rho, exact)
		}
		// And the returned schedule achieves the optimum (with its
		// declared +2*d_max-1 augmentation).
		if rep, err := verify.CheckSchedule(inst, res.Schedule, switchnet.AddCaps(inst.Switch.Caps(), res.CapIncrease)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		} else if rep.MaxResponse > exact {
			t.Fatalf("trial %d: schedule max response %d above optimum %d", trial, rep.MaxResponse, exact)
		}
	}
}
