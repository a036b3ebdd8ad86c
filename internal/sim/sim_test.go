// The cases run each policy the way the tree does — bridged onto the
// streaming runtime by stream.Replay — so what they pin is the Policy
// contract as the round loop that ships enforces it.
package sim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flowsched/internal/sim"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
)

// replay drains inst through the streaming runtime under pol, bridged.
func replay(inst *switchnet.Instance, pol sim.Policy) (*sim.Result, error) {
	res, _, err := stream.Replay(inst, stream.Config{Policy: &stream.Bridge{P: pol}})
	return res, err
}

// takeAll is a test policy that greedily takes pending flows first-fit in
// pending order.
type takeAll struct{}

func (takeAll) Name() string { return "takeAll" }

func (takeAll) Pick(s *sim.State) []int {
	loadIn := make([]int, s.Switch.NumIn())
	loadOut := make([]int, s.Switch.NumOut())
	var picks []int
	for i, p := range s.Pending {
		if loadIn[p.In]+p.Demand <= s.Switch.InCaps[p.In] && loadOut[p.Out]+p.Demand <= s.Switch.OutCaps[p.Out] {
			loadIn[p.In] += p.Demand
			loadOut[p.Out] += p.Demand
			picks = append(picks, i)
		}
	}
	return picks
}

// overloader picks everything, ignoring capacity: the runtime must refuse
// the first pick a port cannot carry.
type overloader struct{}

func (overloader) Name() string { return "overloader" }

func (overloader) Pick(s *sim.State) []int {
	picks := make([]int, len(s.Pending))
	for i := range picks {
		picks[i] = i
	}
	return picks
}

type badIndex struct{}

func (badIndex) Name() string { return "badIndex" }

func (badIndex) Pick(s *sim.State) []int { return []int{len(s.Pending)} }

type dup struct{}

func (dup) Name() string { return "dup" }

func (dup) Pick(s *sim.State) []int {
	if len(s.Pending) > 0 {
		return []int{0, 0}
	}
	return nil
}

func smallInstance() *switchnet.Instance {
	return &switchnet.Instance{
		Switch: switchnet.UnitSwitch(2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 1, Release: 0},
			{In: 0, Out: 1, Demand: 1, Release: 2},
		},
	}
}

func TestRunDrainsAllFlows(t *testing.T) {
	inst := smallInstance()
	res, err := replay(inst, takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedule.Complete() {
		t.Fatal("schedule incomplete")
	}
	if err := res.Schedule.Validate(inst, inst.Switch.Caps()); err != nil {
		t.Fatal(err)
	}
	// Flows 0,1 conflict on output 0: one runs at 0, other at 1.
	if res.TotalResponse != 1+2+1 {
		t.Fatalf("total = %d, want 4", res.TotalResponse)
	}
	if res.MaxResponse != 2 {
		t.Fatalf("max = %d", res.MaxResponse)
	}
}

func TestRunEmptyInstance(t *testing.T) {
	res, err := replay(&switchnet.Instance{Switch: switchnet.UnitSwitch(1)}, takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || !res.Schedule.Complete() {
		t.Fatal("empty instance mishandled")
	}
}

func TestRunRejectsOverload(t *testing.T) {
	inst := smallInstance()
	if _, err := replay(inst, overloader{}); err == nil || !strings.Contains(err.Error(), "infeasible or duplicate") {
		t.Fatalf("want overload error, got %v", err)
	}
}

func TestRunRejectsBadIndexAndDup(t *testing.T) {
	inst := smallInstance()
	if _, err := replay(inst, badIndex{}); err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("want index error, got %v", err)
	}
	if _, err := replay(inst, dup{}); err == nil || !strings.Contains(err.Error(), "infeasible or duplicate") {
		t.Fatalf("want dup error, got %v", err)
	}
}

// never schedules, so the runtime's stall guard must fire.
type never struct{}

func (never) Name() string { return "never" }

func (never) Pick(*sim.State) []int { return nil }

func TestRunGuardsAgainstStall(t *testing.T) {
	inst := smallInstance()
	want := fmt.Sprintf("scheduled nothing for %d consecutive rounds", stream.DefaultStallRounds)
	if _, err := replay(inst, never{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("want stall error %q, got %v", want, err)
	}
}

func TestQueueBookkeeping(t *testing.T) {
	// Policy that asserts queue counts match pending.
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(3),
		Flows: []switchnet.Flow{
			{In: 0, Out: 1, Demand: 1, Release: 0},
			{In: 0, Out: 2, Demand: 1, Release: 0},
			{In: 1, Out: 1, Demand: 1, Release: 1},
		},
	}
	check := policyFunc(func(s *sim.State) []int {
		wantIn := make([]int, 3)
		wantOut := make([]int, 3)
		for _, p := range s.Pending {
			wantIn[p.In]++
			wantOut[p.Out]++
		}
		for i := range wantIn {
			if s.QueueIn[i] != wantIn[i] {
				t.Fatalf("round %d: QueueIn[%d] = %d, want %d", s.Round, i, s.QueueIn[i], wantIn[i])
			}
			if s.QueueOut[i] != wantOut[i] {
				t.Fatalf("round %d: QueueOut[%d] = %d, want %d", s.Round, i, s.QueueOut[i], wantOut[i])
			}
		}
		if len(s.Pending) > 0 {
			return []int{0}
		}
		return nil
	})
	if _, err := replay(inst, check); err != nil {
		t.Fatal(err)
	}
}

// policyFunc adapts a function to the Policy interface for tests.
type policyFunc func(*sim.State) []int

func (policyFunc) Name() string              { return "func" }
func (f policyFunc) Pick(s *sim.State) []int { return f(s) }

// TestRunDeterministicPerSeed: a replay is a pure function of (instance,
// policy); grid fan-out determinism is covered by the engine package.
func TestRunDeterministicPerSeed(t *testing.T) {
	gen := func(seed int64) *switchnet.Instance {
		rng := rand.New(rand.NewSource(seed))
		inst := &switchnet.Instance{Switch: switchnet.UnitSwitch(3)}
		for i := 0; i < 10; i++ {
			inst.Flows = append(inst.Flows, switchnet.Flow{
				In: rng.Intn(3), Out: rng.Intn(3), Demand: 1, Release: rng.Intn(4),
			})
		}
		return inst
	}
	a, err := replay(gen(5), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := replay(gen(5), takeAll{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Schedule.Round, b.Schedule.Round) || a.TotalResponse != b.TotalResponse || a.Rounds != b.Rounds {
		t.Fatal("same seed gave different results")
	}
}
