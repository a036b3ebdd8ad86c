// The paper's heuristics and the Policy contract, replayed through the
// runtime as the table ships them.
package stream_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
	"flowsched/internal/workload"
)

// replay drains inst through the runtime under pol and checks that the
// schedule is complete and feasible.
func replay(t *testing.T, inst *switchnet.Instance, pol stream.Policy) *stream.Result {
	t.Helper()
	res, _, err := stream.Replay(inst, stream.Config{Policy: pol})
	if err != nil {
		t.Fatalf("%s: %v", pol.Name(), err)
	}
	if !res.Schedule.Complete() {
		t.Fatalf("%s: incomplete", pol.Name())
	}
	if _, err := verify.CheckSchedule(inst, res.Schedule, inst.Switch.Caps()); err != nil {
		t.Fatalf("%s: %v", pol.Name(), err)
	}
	return res
}

func TestAllPoliciesProduceValidSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := workload.PoissonConfig{M: 6, T: 6, Ports: 4}
	inst := cfg.Generate(rng)
	for _, name := range stream.PaperNames() {
		replay(t, inst, stream.ByName(name))
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
	if res := replay(t, inst, stream.ByName("MaxCard")); res.MaxResponse != 1 {
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
	res := replay(t, inst, stream.ByName("MinRTime"))
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
	card := replay(t, inst, stream.ByName("MaxCard"))
	rtime := replay(t, inst, stream.ByName("MinRTime"))
	weight := replay(t, inst, stream.ByName("MaxWeight"))
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
	for _, name := range stream.PaperNames() {
		replay(t, inst, stream.ByName(name))
	}
}

// TestAllReturnsPaperHeuristics: the stream table's paper rows are the
// paper's three heuristics, in presentation order, each resolving to a
// policy of its name.
func TestAllReturnsPaperHeuristics(t *testing.T) {
	want := []string{"MaxCard", "MinRTime", "MaxWeight"}
	if got := stream.PaperNames(); !slices.Equal(got, want) {
		t.Fatalf("paper rows = %v, want %v", got, want)
	}
	for _, name := range want {
		if p := stream.ByName(name); p == nil || p.Name() != name {
			t.Fatalf("%s does not resolve to itself", name)
		}
	}
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
	res := replay(t, smallInstance(), stream.ByName("StreamFIFO"))
	// Flows 0,1 conflict on output 0: one runs at 0, other at 1.
	if res.TotalResponse != 1+2+1 {
		t.Fatalf("total = %d, want 4", res.TotalResponse)
	}
	if res.MaxResponse != 2 {
		t.Fatalf("max = %d", res.MaxResponse)
	}
}

func TestRunEmptyInstance(t *testing.T) {
	res := replay(t, &switchnet.Instance{Switch: switchnet.UnitSwitch(1)}, stream.ByName("StreamFIFO"))
	if res.Rounds != 0 {
		t.Fatal("empty instance mishandled")
	}
}

// overloader takes every pending flow, ignoring capacity, and counts the
// takes the runtime refused.
type overloader struct{ refused int }

func (*overloader) Name() string { return "overloader" }

func (o *overloader) Pick(v *stream.View) {
	v.Each(func(id stream.ID, _ int64, _ switchnet.Flow) bool {
		if !v.Take(id) {
			o.refused++
		}
		return true
	})
}

// TestRunRejectsOverload: Take refuses every flow a port can no longer
// carry, so a policy that ignores capacity still yields a feasible
// schedule.
func TestRunRejectsOverload(t *testing.T) {
	pol := &overloader{}
	replay(t, smallInstance(), pol)
	if pol.refused == 0 {
		t.Fatal("Take refused nothing on a conflicting output")
	}
}

// dupTaker takes its oldest pending flow twice, then a pending id that
// does not exist.
type dupTaker struct {
	t     *testing.T
	takes int
}

func (*dupTaker) Name() string { return "dup" }

func (d *dupTaker) Pick(v *stream.View) {
	v.Each(func(id stream.ID, _ int64, _ switchnet.Flow) bool {
		if v.Take(id) {
			d.takes++
		}
		if v.Take(id) {
			d.t.Errorf("round %d: a second Take of id %d was accepted", v.Round(), id)
		}
		return false
	})
	if v.Round() == 1 {
		v.Take(1 << 20)
	}
}

// TestRunRejectsBadIndexAndDup: Take refuses a flow already taken this
// round, and a take of an id that is not pending fails the run.
func TestRunRejectsBadIndexAndDup(t *testing.T) {
	pol := &dupTaker{t: t}
	_, _, err := stream.Replay(smallInstance(), stream.Config{Policy: pol})
	if err == nil || !strings.Contains(err.Error(), "not a pending flow") {
		t.Fatalf("want the pending-flow error, got %v", err)
	}
	if pol.takes != 2 {
		t.Fatalf("%d takes before the bad id, want 2", pol.takes)
	}
}

func TestRunGuardsAgainstStall(t *testing.T) {
	want := fmt.Sprintf("scheduled nothing for %d consecutive rounds", stream.DefaultStallRounds)
	if _, _, err := stream.Replay(smallInstance(), stream.Config{Policy: noopPolicy{}}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("want stall error %q, got %v", want, err)
	}
}

// queueCheck asserts each round that QueueIn and QueueOut count the
// pending flows Each walks, then takes the oldest.
type queueCheck struct{ t *testing.T }

func (queueCheck) Name() string { return "queueCheck" }

func (q queueCheck) Pick(v *stream.View) {
	sw := v.Switch()
	wantIn, wantOut := make([]int, sw.NumIn()), make([]int, sw.NumOut())
	first := stream.NoID
	v.Each(func(id stream.ID, _ int64, f switchnet.Flow) bool {
		wantIn[f.In]++
		wantOut[f.Out]++
		if first == stream.NoID {
			first = id
		}
		return true
	})
	for i := range wantIn {
		if v.QueueIn(i) != wantIn[i] {
			q.t.Fatalf("round %d: QueueIn(%d) = %d, want %d", v.Round(), i, v.QueueIn(i), wantIn[i])
		}
	}
	for j := range wantOut {
		if v.QueueOut(j) != wantOut[j] {
			q.t.Fatalf("round %d: QueueOut(%d) = %d, want %d", v.Round(), j, v.QueueOut(j), wantOut[j])
		}
	}
	if first != stream.NoID {
		v.Take(first)
	}
}

func TestQueueBookkeeping(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(3),
		Flows: []switchnet.Flow{
			{In: 0, Out: 1, Demand: 1, Release: 0},
			{In: 0, Out: 2, Demand: 1, Release: 0},
			{In: 1, Out: 1, Demand: 1, Release: 1},
		},
	}
	replay(t, inst, queueCheck{t})
}

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
	for _, name := range stream.AllNames() {
		a := replay(t, gen(5), stream.ByName(name))
		b := replay(t, gen(5), stream.ByName(name))
		if !slices.Equal(a.Schedule.Round, b.Schedule.Round) || a.TotalResponse != b.TotalResponse || a.Rounds != b.Rounds {
			t.Fatalf("%s: same seed gave different results", name)
		}
	}
}
