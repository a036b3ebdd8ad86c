// The heuristics run bridged onto the streaming runtime, as the policy
// table ships them.
package heuristics_test

import (
	"math/rand"
	"slices"
	"testing"

	"flowsched/internal/heuristics"
	"flowsched/internal/sim"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// paperHeuristics returns the policies of the stream table's bridged rows,
// in table order.
func paperHeuristics() []sim.Policy {
	var out []sim.Policy
	for _, name := range stream.BridgedNames() {
		out = append(out, stream.ByName(name).(*stream.Bridge).P)
	}
	return out
}

func runPolicy(t *testing.T, inst *switchnet.Instance, pol sim.Policy) *sim.Result {
	t.Helper()
	res, _, err := stream.Replay(inst, stream.Config{Policy: &stream.Bridge{P: pol}})
	if err != nil {
		t.Fatalf("%s: %v", pol.Name(), err)
	}
	if !res.Schedule.Complete() {
		t.Fatalf("%s: incomplete", pol.Name())
	}
	if err := res.Schedule.Validate(inst, inst.Switch.Caps()); err != nil {
		t.Fatalf("%s: %v", pol.Name(), err)
	}
	return res
}

func TestAllPoliciesProduceValidSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := workload.PoissonConfig{M: 6, T: 6, Ports: 4}
	inst := cfg.Generate(rng)
	for _, pol := range paperHeuristics() {
		runPolicy(t, inst, pol)
	}
}

func TestMaxCardTakesMaximumMatching(t *testing.T) {
	// Three flows, perfect matching exists: MaxCard must take all three in
	// round 0.
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(3),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 1, Out: 1, Demand: 1, Release: 0},
			{In: 2, Out: 2, Demand: 1, Release: 0},
		},
	}
	res := runPolicy(t, inst, heuristics.MaxCard{})
	if res.MaxResponse != 1 {
		t.Fatalf("max response = %d, want 1", res.MaxResponse)
	}
}

func TestMinRTimePrefersOldFlows(t *testing.T) {
	// Input 0 has a backlog; a fresh competing flow shares output 0.
	// MinRTime must clear the older flow first.
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 0, Out: 1, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 1, Release: 1},
		},
	}
	res := runPolicy(t, inst, heuristics.MinRTime{})
	// Round 0 schedules one of the two port-0 flows; round 1 the aged
	// leftover wins output 0 over the fresh arrival if they conflict.
	if res.MaxResponse > 2 {
		t.Fatalf("max response = %d, want <= 2", res.MaxResponse)
	}
	if got := res.Schedule.ResponseTime(inst, 1); got > 2 {
		t.Fatalf("aged flow waited %d rounds", got)
	}
}

func TestHeuristicOrderingOnHeavyLoad(t *testing.T) {
	// Under heavy congestion MinRTime should have the best max response
	// and MaxCard should be at least as good as the others on average —
	// the qualitative finding of Figures 6 and 7. We assert the weaker,
	// stable directional claims with generous slack to avoid flakiness.
	rng := rand.New(rand.NewSource(7))
	cfg := workload.PoissonConfig{M: 16, T: 10, Ports: 4} // load factor 4
	inst := cfg.Generate(rng)
	card := runPolicy(t, inst, heuristics.MaxCard{})
	rtime := runPolicy(t, inst, heuristics.MinRTime{})
	weight := runPolicy(t, inst, heuristics.MaxWeight{})
	if rtime.MaxResponse > card.MaxResponse+5 {
		t.Fatalf("MinRTime max %d much worse than MaxCard %d", rtime.MaxResponse, card.MaxResponse)
	}
	if card.AvgResponse > 2*weight.AvgResponse+5 {
		t.Fatalf("MaxCard avg %v much worse than MaxWeight %v", card.AvgResponse, weight.AvgResponse)
	}
}

func TestGeneralDemandFallback(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.NewSwitch(2, 2, 3),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 2, Release: 0},
			{In: 0, Out: 1, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 3, Release: 0},
			{In: 1, Out: 1, Demand: 2, Release: 1},
		},
	}
	for _, pol := range paperHeuristics() {
		runPolicy(t, inst, pol)
	}
}

// TestAllReturnsPaperHeuristics: the stream table's bridged rows are the
// paper's three heuristics, in presentation order.
func TestAllReturnsPaperHeuristics(t *testing.T) {
	want := []sim.Policy{heuristics.MaxCard{}, heuristics.MinRTime{}, heuristics.MaxWeight{}}
	if got := paperHeuristics(); !slices.Equal(got, want) {
		t.Fatalf("bridged rows = %v, want %v", got, want)
	}
}
