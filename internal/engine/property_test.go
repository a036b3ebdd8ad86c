package engine

import (
	"math/rand"
	"testing"

	"flowsched/internal/core"
	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
)

// randomUnitInstance draws a random unit-demand instance small enough for
// the LP-based solvers.
func randomUnitInstance(rng *rand.Rand) *switchnet.Instance {
	m := 2 + rng.Intn(3)
	n := 1 + rng.Intn(10)
	inst := &switchnet.Instance{Switch: switchnet.UnitSwitch(m)}
	for i := 0; i < n; i++ {
		inst.Flows = append(inst.Flows, switchnet.Flow{
			In: rng.Intn(m), Out: rng.Intn(m), Demand: 1, Release: rng.Intn(4),
		})
	}
	return inst
}

// randomGeneralInstance draws a random instance with demands in
// [1, dmax] and matching capacities.
func randomGeneralInstance(rng *rand.Rand) *switchnet.Instance {
	m := 2 + rng.Intn(3)
	dmax := 1 + rng.Intn(3)
	n := 1 + rng.Intn(8)
	inst := &switchnet.Instance{Switch: switchnet.NewSwitch(m, m, dmax)}
	for i := 0; i < n; i++ {
		inst.Flows = append(inst.Flows, switchnet.Flow{
			In: rng.Intn(m), Out: rng.Intn(m), Demand: 1 + rng.Intn(dmax), Release: rng.Intn(4),
		})
	}
	return inst
}

// TestPropertyAllSolversProduceVerifiableSchedules is the central property
// of the repository: whatever any registered solver outputs on a random
// instance must pass the independent verify oracle under the solver's own
// declared capacity augmentation — capacity respected, every unit of
// demand delivered, nothing scheduled before release.
func TestPropertyAllSolversProduceVerifiableSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		inst := randomUnitInstance(rng)
		for _, s := range Solvers() {
			sol, err := s.Solve(inst)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, s.Name(), err)
			}
			rep, err := verify.CheckSchedule(inst, sol.Schedule, sol.Caps)
			if err != nil {
				t.Fatalf("trial %d: %s failed the oracle: %v", trial, s.Name(), err)
			}
			if rep.Scheduled != inst.N() || rep.DeliveredDemand != rep.TotalDemand {
				t.Fatalf("trial %d: %s did not deliver all demand: %+v", trial, s.Name(), rep)
			}
		}
	}
}

// TestPropertyGeneralDemandSolvers covers the non-unit-demand code paths
// (ART is excluded: Theorem 1 is stated for unit flows, and its adapter
// correctly refuses).
func TestPropertyGeneralDemandSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	solvers := solversNamed(t, "MRT", "AMRT", "MaxCard", "MinRTime", "MaxWeight", "StreamFIFO", "OldestFirst", "Coflow/SEBF", "Coflow/SCF")
	for trial := 0; trial < 8; trial++ {
		inst := randomGeneralInstance(rng)
		for _, s := range solvers {
			sol, err := s.Solve(inst)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, s.Name(), err)
			}
			rep, err := verify.CheckSchedule(inst, sol.Schedule, sol.Caps)
			if err != nil {
				t.Fatalf("trial %d: %s failed the oracle: %v", trial, s.Name(), err)
			}
			if rep.DeliveredDemand != rep.TotalDemand {
				t.Fatalf("trial %d: %s dropped demand: %+v", trial, s.Name(), rep)
			}
		}
	}
}

// TestPropertyTimeConstrainedSolver: with a generous response window the
// time-constrained solver (Theorem 3, over the FS-MRT windows
// [r_e, r_e+rho)) must succeed within its 2*d_max-1 augmentation and keep
// every flow inside its window.
func TestPropertyTimeConstrainedSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 6; trial++ {
		inst := randomUnitInstance(rng)
		rho := inst.CongestionHorizon() + 1
		res, err := core.SolveTimeConstrained(inst, core.ResponseWindows(inst, rho))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rep, err := verify.CheckAugmented(inst, res.Schedule, 2*inst.MaxDemand()-1)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		if rep.MaxResponse > rho {
			t.Fatalf("trial %d: response %d escaped window rho=%d", trial, rep.MaxResponse, rho)
		}
	}
}

// TestPropertyOracleRejectsCorruptedSchedules guards the oracle itself: a
// verified schedule corrupted in any of the three violation classes must be
// rejected, so the property tests above cannot pass vacuously.
func TestPropertyOracleRejectsCorruptedSchedules(t *testing.T) {
	// Five flows contending for the same port pair: piling them into one
	// round must overload any constant-augmentation capacity.
	inst := &switchnet.Instance{Switch: switchnet.UnitSwitch(2)}
	for i := 0; i < 5; i++ {
		inst.Flows = append(inst.Flows, switchnet.Flow{In: 0, Out: 0, Demand: 1, Release: i % 2})
	}
	sol, err := (MRTSolver{}).Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mut func(s *switchnet.Schedule)) error {
		c := &switchnet.Schedule{Round: append([]int(nil), sol.Schedule.Round...)}
		mut(c)
		_, err := verify.CheckSchedule(inst, c, sol.Caps)
		return err
	}
	if err := corrupt(func(s *switchnet.Schedule) { s.Round[0] = switchnet.Unscheduled }); err == nil {
		t.Fatal("oracle accepted a dropped flow")
	}
	if err := corrupt(func(s *switchnet.Schedule) { s.Round[1] = inst.Flows[1].Release - 1 }); err == nil {
		t.Fatal("oracle accepted a flow before its release")
	}
	if err := corrupt(func(s *switchnet.Schedule) {
		// Pile every flow into one round on zero-augmentation caps.
		for f := range s.Round {
			s.Round[f] = inst.MaxRelease()
		}
	}); err == nil {
		t.Fatal("oracle accepted an overloaded round")
	}
}
