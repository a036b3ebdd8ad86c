package flowsched

import (
	"math/rand"
	"testing"

	"flowsched/internal/stream"
	"flowsched/internal/workload"
)

// TestPublicAPIQuickstart is the doc quickstart as an integration test:
// build an instance, solve both offline problems, simulate heuristics.
func TestPublicAPIQuickstart(t *testing.T) {
	inst := &Instance{
		Switch: UnitSwitch(3),
		Flows: []Flow{
			{In: 0, Out: 1, Demand: 1, Release: 0},
			{In: 1, Out: 1, Demand: 1, Release: 0},
			{In: 2, Out: 0, Demand: 1, Release: 1},
		},
	}
	mrt, err := SolveMRT(inst)
	if err != nil {
		t.Fatal(err)
	}
	if mrt.Rho != 2 {
		t.Fatalf("rho = %d, want 2", mrt.Rho)
	}
	art, err := SolveART(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckScaled(inst, art.Schedule, art.CapFactor); err != nil {
		t.Fatal(err)
	}
	for _, name := range stream.PaperNames() {
		pol := PolicyByName(name)
		res, err := Simulate(inst, pol)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CheckSchedule(inst, res.Schedule, inst.Switch.Caps()); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
	}
}

func TestFig4bOfflineOptimum(t *testing.T) {
	inst := workload.Fig4b()
	rho, err := MRTLowerBound(inst)
	if err != nil {
		t.Fatal(err)
	}
	if rho != 2 {
		t.Fatalf("LP lower bound = %d, want 2", rho)
	}
}

func TestBoundsAgreeOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		inst := workload.PoissonConfig{M: 4, T: 5, Ports: 4}.Generate(rng)
		if inst.N() == 0 {
			continue
		}
		lp, err := ARTLowerBound(inst)
		if err != nil {
			t.Fatal(err)
		}
		srpt := SRPTLowerBound(inst)
		// Both are lower bounds on the same optimum; any simulated
		// schedule must beat neither.
		res, err := Simulate(inst, PolicyByName("MaxCard"))
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.TotalResponse) < lp.TotalResponse-1e-6 {
			t.Fatalf("trial %d: LP bound above a feasible schedule", trial)
		}
		if res.TotalResponse < srpt {
			t.Fatalf("trial %d: SRPT bound above a feasible schedule", trial)
		}
	}
}

// TestPolicyByNamePublic: PolicyByName resolves exactly the paper's three
// heuristics; a native streaming policy or an unknown name is nil.
func TestPolicyByNamePublic(t *testing.T) {
	for _, name := range []string{"MaxCard", "MinRTime", "MaxWeight"} {
		if pol := PolicyByName(name); pol == nil || pol.Name() != name {
			t.Fatalf("PolicyByName(%q) = %v", name, pol)
		}
	}
	if PolicyByName("RoundRobin") != nil || PolicyByName("zzz") != nil {
		t.Fatal("PolicyByName resolved a name that is no paper heuristic")
	}
}
