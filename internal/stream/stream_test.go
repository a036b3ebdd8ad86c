package stream_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"flowsched/internal/coflow"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
	"flowsched/internal/workload"
)

// The workload sources must satisfy the runtime's Source contract.
var (
	_ stream.Source = (*workload.ArrivalSource)(nil)
	_ stream.Source = (*workload.TraceSource)(nil)
	_ stream.Source = (*workload.InstanceSource)(nil)
)

// sliceSource yields a fixed flow sequence, for adversarial inputs.
type sliceSource struct {
	flows []switchnet.Flow
	pos   int
}

func (s *sliceSource) Next() (switchnet.Flow, bool) {
	if s.pos >= len(s.flows) {
		return switchnet.Flow{}, false
	}
	f := s.flows[s.pos]
	s.pos++
	return f, true
}

func (s *sliceSource) PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow {
	for n := 0; n < max && s.pos < len(s.flows) && s.flows[s.pos].Release <= round; n++ {
		dst = append(dst, s.flows[s.pos])
		s.pos++
	}
	return dst
}

func (s *sliceSource) Err() error { return nil }

// TestStreamMatchesSim is the subsystem's core property: replaying a
// finite instance through the streaming runtime must reproduce the
// oracle's batch round loop flow for flow — same rounds, same metrics —
// whenever admission control never binds, which stream.Replay
// guarantees. The paper's heuristics, as the policy table ships them,
// run against the oracle's list-based references of the same rules, and
// StreamFIFO against the oracle's FIFO reference: the native rule that
// replaced the simulator's FIFO baseline.
func TestStreamMatchesSim(t *testing.T) {
	configs := []workload.PoissonConfig{
		{M: 6, T: 8, Ports: 5},
		{M: 3, T: 5, Ports: 3},
		{M: 4, T: 6, Ports: 4, Cap: 3, MaxDemand: 3}, // general demands: first-fit paths
		{M: 8, T: 6, Ports: 3, Cap: 4, MaxDemand: 4}, // tie-heavy first fit: pins the sort's tie order
	}
	type pair struct {
		oracle   refPolicy
		streamed func() stream.Policy
	}
	var pairs []pair
	for _, name := range stream.PaperNames() {
		pairs = append(pairs, pair{paperRef(name), func() stream.Policy { return stream.ByName(name) }})
	}
	pairs = append(pairs, pair{fifoRef{}, func() stream.Policy { return stream.ByName("StreamFIFO") }})
	for _, cfg := range configs {
		for seed := int64(1); seed <= 4; seed++ {
			inst := cfg.Generate(rand.New(rand.NewSource(seed)))
			if inst.N() == 0 {
				continue
			}
			for _, pr := range pairs {
				pol := pr.streamed()
				want, err := simRun(inst, pr.oracle)
				if err != nil {
					t.Fatalf("oracle %s seed %d: %v", pr.oracle.Name(), seed, err)
				}
				got, _ := mustReplay(t, inst, stream.Config{Policy: pol, VerifyEvery: 4})
				for f := range got.Schedule.Round {
					if got.Schedule.Round[f] != want.Schedule.Round[f] {
						t.Fatalf("%s seed %d: flow %d streamed to round %d, oracle to %d",
							pol.Name(), seed, f, got.Schedule.Round[f], want.Schedule.Round[f])
					}
				}
				if got.TotalResponse != want.TotalResponse || got.MaxResponse != want.MaxResponse ||
					got.AvgResponse != want.AvgResponse {
					t.Fatalf("%s seed %d: streamed metrics (%d,%d,%v) != oracle (%d,%d,%v)",
						pol.Name(), seed, got.TotalResponse, got.MaxResponse, got.AvgResponse,
						want.TotalResponse, want.MaxResponse, want.AvgResponse)
				}
				if got.Rounds != want.Rounds {
					t.Fatalf("%s seed %d: streamed final round %d != oracle rounds %d",
						pol.Name(), seed, got.Rounds, want.Rounds)
				}
				if _, err := verify.CheckSchedule(inst, got.Schedule, inst.Switch.Caps()); err != nil {
					t.Fatalf("%s seed %d: streamed schedule rejected by oracle: %v", pol.Name(), seed, err)
				}
			}
		}
	}
}

// TestFIFOOrdering: StreamFIFO, and the oracle's FIFO reference it is
// pinned to, must schedule the earliest-released conflicting flow first,
// whatever the flows' order in the instance.
func TestFIFOOrdering(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 1},
			{In: 1, Out: 0, Demand: 1, Release: 0},
		},
	}
	ref, err := simRun(inst, fifoRef{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := mustReplay(t, inst, stream.Config{Policy: stream.ByName("StreamFIFO")})
	for _, sched := range []*switchnet.Schedule{ref.Schedule, got.Schedule} {
		if sched.Round[1] != 0 {
			t.Fatalf("FIFO scheduled the later flow first: %v", sched.Round)
		}
	}
}

// TestCoflowRunMatchesOracle: coflow.Run replays the flattened instance
// through the runtime, which shows its policy admission sequence numbers
// (View.Each's seq), not flattened indices — and Flatten emits coflows
// in slice order, not release order. On coflows released out of slice
// order, SEBF's, SCF's and FIFO's schedules and coflow metrics must still
// be those of the oracle's references on the flattened instance, where a
// flow's identifier is its flattened index, flow for flow.
func TestCoflowRunMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		in := &coflow.Instance{Switch: switchnet.NewSwitch(4, 4, 2)}
		for c := 0; c < 8; c++ {
			cf := coflow.Coflow{Release: rng.Intn(6)}
			for k := 1 + rng.Intn(4); k > 0; k-- {
				cf.Members = append(cf.Members, switchnet.Flow{In: rng.Intn(4), Out: rng.Intn(4), Demand: 1 + rng.Intn(2)})
			}
			in.Coflows = append(in.Coflows, cf)
		}
		flat, owner := in.Flatten()
		for _, pr := range []struct {
			ref func(owner []int) refPolicy
			mk  func(owner []int) stream.Policy
		}{
			{sebfRef, coflow.SEBF},
			{scfRef, coflow.SCF},
			{func(owner []int) refPolicy { return coflowFIFORef(in, owner) }, func(owner []int) stream.Policy { return coflow.FIFO(in, owner) }},
		} {
			pol := pr.ref(owner)
			want, err := simRun(flat, pol)
			if err != nil {
				t.Fatalf("trial %d: oracle %s: %v", trial, pol.Name(), err)
			}
			wantCf, err := coflow.Evaluate(in, owner, want.Schedule)
			if err != nil {
				t.Fatal(err)
			}
			gotCf, got, err := coflow.Run(in, pr.mk)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, pol.Name(), err)
			}
			for f, round := range got.Schedule.Round {
				if round != want.Schedule.Round[f] {
					t.Fatalf("trial %d: %s: flow %d (coflow %d) at round %d, oracle %d",
						trial, pol.Name(), f, owner[f], round, want.Schedule.Round[f])
				}
			}
			if !slices.Equal(gotCf.Completion, wantCf.Completion) || gotCf.TotalResponse != wantCf.TotalResponse ||
				gotCf.MaxResponse != wantCf.MaxResponse {
				t.Fatalf("trial %d: %s: coflow metrics %+v, oracle %+v", trial, pol.Name(), gotCf, wantCf)
			}
		}
	}
}

// TestOldestFirstMatchesMinRTimeStyle is OldestFirst's differential
// property: on replayed unit-demand finite instances the native policy
// must reproduce, round for round, the oracle's run of the MinRTime-style
// reference agePortOrder, which keeps MinRTime's age-ordered priorities
// (a greedy maximal selection, with OldestFirst's port-order tie-break)
// but pays a full pending rescan per round. Unit demands make the
// comparison exact: every flow behind a blocked VOQ head shares its
// ports and demand, so the reference's first fit over the whole pending
// set rejects exactly the flows OldestFirst never visits.
// The equivalence is what "the fast path runs a paper-grade policy"
// means — same schedule, O(active VOQs + span) per round instead of an
// O(pending log pending) rescan.
func TestOldestFirstMatchesMinRTimeStyle(t *testing.T) {
	configs := []workload.PoissonConfig{
		{M: 6, T: 8, Ports: 5},
		{M: 3, T: 5, Ports: 3},
		{M: 12, T: 10, Ports: 4}, // overloaded: deep VOQs, long drain tail
	}
	for _, cfg := range configs {
		for seed := int64(1); seed <= 6; seed++ {
			inst := cfg.Generate(rand.New(rand.NewSource(seed)))
			if inst.N() == 0 {
				continue
			}
			simRes, err := simRun(inst, agePortOrder{})
			if err != nil {
				t.Fatal(err)
			}
			// Factor 0 is the default target, which never cuts on switches
			// this small; 1 forces a cut after almost every release, so the
			// staged path runs. The schedules are equal, so any stage the
			// second run adds is a cut (asserted on the overloaded config).
			var plain int64
			for _, factor := range []int{0, 1} {
				pol := &stream.OldestFirst{}
				pol.SetTargetFactor(factor)
				native, _ := mustReplay(t, inst, stream.Config{Policy: pol, VerifyEvery: 4})
				for f, round := range native.Schedule.Round {
					if round != simRes.Schedule.Round[f] {
						t.Fatalf("M=%g seed %d factor %d: flow %d — OldestFirst round %d, oracle AgePortOrder %d",
							cfg.M, seed, factor, f, round, simRes.Schedule.Round[f])
					}
				}
				if native.TotalResponse != simRes.TotalResponse || native.MaxResponse != simRes.MaxResponse {
					t.Fatalf("M=%g seed %d factor %d: OldestFirst metrics (%d,%d) != oracle (%d,%d)",
						cfg.M, seed, factor, native.TotalResponse, native.MaxResponse,
						simRes.TotalResponse, simRes.MaxResponse)
				}
				if _, err := verify.CheckSchedule(inst, native.Schedule, inst.Switch.Caps()); err != nil {
					t.Fatalf("M=%g seed %d factor %d: OldestFirst schedule rejected by oracle: %v", cfg.M, seed, factor, err)
				}
				if factor == 0 {
					plain = pol.Stages()
				} else if cfg.M == 12 && pol.Stages() <= plain {
					t.Fatalf("M=%g seed %d: %d stages with the target forced to 1, %d at the default: the staged path never ran",
						cfg.M, seed, pol.Stages(), plain)
				}
			}
		}
	}
}

// TestOldestFirstScheduleIgnoresStageTarget is the staged pick's own
// property: where a pick cuts its release range changes what it sorts,
// never what it serves. On multi-unit demands over capacities above one
// — the successor heap live, heads that do not fit abandoning their
// queues — at K in {1, 2, 3}, the OnSchedule (seq, round) stream is the
// same with the stage target forced to 1 (a cut after almost every
// release), at the default, and with cuts off; and one instance reused
// for all of them at K=1 (where the runtime picks with the value it was
// given) serves what a fresh one does, because the fields are per-pick
// scratch. The 9-port switch is where factor 1 cuts hardest; the 70-port
// one is wide enough (more than 2 x 16 outputs per unit of input
// capacity) for the default target to cut.
func TestOldestFirstScheduleIgnoresStageTarget(t *testing.T) {
	const never = 1 << 20
	for _, cfg := range []workload.PoissonConfig{
		{M: 40, T: 30, Ports: 9, Cap: 4, MaxDemand: 4},
		{M: 300, T: 24, Ports: 70, Cap: 2, MaxDemand: 2},
	} {
		for _, K := range []int{1, 2, 3} {
			inst := cfg.Generate(rand.New(rand.NewSource(int64(K))))
			run := func(pol *stream.OldestFirst) (trace [][2]int64, stages int64) {
				before := pol.Stages()
				rt, err := stream.New(workload.NewInstanceSource(inst), stream.Config{
					Switch: inst.Switch, Policy: pol, Shards: K, VerifyEvery: 16,
					OnSchedule: func(seq int64, _ switchnet.Flow, round int) {
						trace = append(trace, [2]int64{seq, int64(round)})
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rt.Run(); err != nil {
					t.Fatal(err)
				}
				return trace, pol.Stages() - before
			}
			fresh := &stream.OldestFirst{}
			fresh.SetTargetFactor(never)
			want, uncut := run(fresh)
			if len(want) != inst.N() {
				t.Fatalf("%d ports K=%d: %d of %d flows scheduled", cfg.Ports, K, len(want), inst.N())
			}
			used := &stream.OldestFirst{}
			for _, factor := range []int{1, 0, never, 1} {
				used.SetTargetFactor(factor)
				got, stages := run(used)
				if len(got) != len(want) {
					t.Fatalf("%d ports K=%d factor %d: %d flows scheduled, want %d", cfg.Ports, K, factor, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%d ports K=%d factor %d: serve %d is (seq, round) %v, uncut pick serves %v",
							cfg.Ports, K, factor, i, got[i], want[i])
					}
				}
				// Equal schedules mean equal picks, so a stage beyond the
				// uncut run's is a cut. (At K > 1 the shards pick with their
				// own instances and these counts stay 0.)
				cuts := factor == 1 || (factor == 0 && cfg.Ports == 70)
				if K == 1 && cuts != (stages > uncut) {
					t.Fatalf("%d ports factor %d: %d stages against %d uncut, want cuts: %v", cfg.Ports, factor, stages, uncut, cuts)
				}
			}
		}
	}
}

// nativePolicies returns one fresh instance of every native streaming
// policy, via the registry the runtime and flowsim resolve from.
func nativePolicies(t *testing.T) []stream.Policy {
	t.Helper()
	var pols []stream.Policy
	for _, name := range stream.Names() {
		p := stream.ByName(name)
		if p == nil {
			t.Fatalf("registry name %q does not resolve", name)
		}
		pols = append(pols, p)
	}
	return pols
}

// TestNativePoliciesFeasible drains random streams under the native
// policies with spot-check verification on every window.
func TestNativePoliciesFeasible(t *testing.T) {
	for _, pol := range nativePolicies(t) {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := workload.PoissonConfig{M: 7, T: 12, Ports: 5, Cap: 2, MaxDemand: 2}
			inst := cfg.Generate(rand.New(rand.NewSource(seed)))
			if inst.N() == 0 {
				continue
			}
			res, sum := mustReplay(t, inst, stream.Config{Policy: pol, VerifyEvery: 3})
			sched := res.Schedule
			if !sched.Complete() {
				t.Fatalf("%s seed %d: incomplete schedule", pol.Name(), seed)
			}
			if _, err := verify.CheckSchedule(inst, sched, inst.Switch.Caps()); err != nil {
				t.Fatalf("%s seed %d: %v", pol.Name(), seed, err)
			}
			if sum.Completed != int64(inst.N()) {
				t.Fatalf("%s seed %d: completed %d of %d", pol.Name(), seed, sum.Completed, inst.N())
			}
			if sum.WindowsVerified == 0 {
				t.Fatalf("%s seed %d: no verification windows ran", pol.Name(), seed)
			}
		}
	}
}

// TestStreamBackpressure drives an overloaded switch through a tiny
// admission limit: the pending set must never exceed it, nothing may be
// dropped, and the stall is charged to response time, not hidden.
func TestStreamBackpressure(t *testing.T) {
	const maxPending = 16
	const flows = 500
	src := workload.NewArrivalSource(workload.ArrivalConfig{
		Ports: 2, M: 8, MaxFlows: flows,
	}, rand.New(rand.NewSource(7)))
	rt, err := stream.New(src, stream.Config{
		Switch:      src.Switch(),
		Policy:      &stream.RoundRobin{},
		MaxPending:  maxPending,
		VerifyEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != flows {
		t.Fatalf("completed %d of %d", sum.Completed, flows)
	}
	if sum.PeakPending > maxPending {
		t.Fatalf("peak pending %d exceeds admission limit %d", sum.PeakPending, maxPending)
	}
	if sum.Backpressured == 0 {
		t.Fatal("overloaded stream saw no backpressure")
	}
	if sum.MaxResponse <= 1 {
		t.Fatalf("overload must inflate response times, got max %d", sum.MaxResponse)
	}
}

// TestStreamSnapshotRace exercises concurrent Snapshot calls against a
// running drain (meaningful under -race).
func TestStreamSnapshotRace(t *testing.T) {
	src := workload.NewArrivalSource(workload.ArrivalConfig{
		Ports: 8, M: 8, MaxFlows: 20000,
	}, rand.New(rand.NewSource(3)))
	rt, err := stream.New(src, stream.Config{
		Switch: src.Switch(),
		Policy: &stream.RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					s := rt.Snapshot()
					if s.Completed > s.Admitted {
						t.Error("completed exceeds admitted")
						return
					}
				}
			}
		}()
	}
	sum, err := rt.Run()
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 20000 {
		t.Fatalf("completed %d of 20000", sum.Completed)
	}
}

// noopPolicy never schedules anything.
type noopPolicy struct{}

func (noopPolicy) Name() string      { return "noop" }
func (noopPolicy) Pick(*stream.View) {}

// TestStreamStallGuard aborts a policy that makes no progress.
func TestStreamStallGuard(t *testing.T) {
	src := &sliceSource{flows: []switchnet.Flow{{In: 0, Out: 0, Demand: 1, Release: 0}}}
	rt, err := stream.New(src, stream.Config{
		Switch: switchnet.UnitSwitch(2),
		Policy: noopPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err == nil {
		t.Fatal("stalled run did not fail")
	}
}

// badIDPolicy takes a pending id that does not exist.
type badIDPolicy struct{}

func (badIDPolicy) Name() string { return "badID" }
func (badIDPolicy) Pick(v *stream.View) {
	v.Take(1 << 20)
}

// TestStreamRejectsBadPolicies covers the policy-contract failure paths.
func TestStreamRejectsBadPolicies(t *testing.T) {
	src := &sliceSource{flows: []switchnet.Flow{{In: 0, Out: 0, Demand: 1, Release: 0}}}
	rt, err := stream.New(src, stream.Config{Switch: switchnet.UnitSwitch(2), Policy: badIDPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err == nil {
		t.Fatal("taking an invalid id did not fail the run")
	}
}

// TestStreamRejectsBadSources covers the admission validation paths.
func TestStreamRejectsBadSources(t *testing.T) {
	cases := []struct {
		name  string
		flows []switchnet.Flow
	}{
		{"decreasing release", []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 5},
			{In: 0, Out: 1, Demand: 1, Release: 2},
		}},
		{"zero demand", []switchnet.Flow{{In: 0, Out: 0, Demand: 0, Release: 0}}},
		{"demand above kappa", []switchnet.Flow{{In: 0, Out: 0, Demand: 2, Release: 0}}},
		{"port out of range", []switchnet.Flow{{In: 9, Out: 0, Demand: 1, Release: 0}}},
	}
	for _, tc := range cases {
		rt, err := stream.New(&sliceSource{flows: tc.flows}, stream.Config{
			Switch: switchnet.UnitSwitch(2),
			Policy: &stream.RoundRobin{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(); err == nil {
			t.Errorf("%s: run did not fail", tc.name)
		}
	}
}

// TestStreamIdleGapJump: a sparse stream must jump over idle rounds, not
// iterate them — and with verification enabled, the jump must skip the
// empty windows in between in O(1), not flush them one by one (a release
// this large would otherwise hang the run). Exactly the two windows that
// checked a round are counted, none of the empty ones the jump crosses.
func TestStreamIdleGapJump(t *testing.T) {
	src := &sliceSource{flows: []switchnet.Flow{
		{In: 0, Out: 0, Demand: 1, Release: 0},
		{In: 0, Out: 0, Demand: 1, Release: 1 << 40},
	}}
	_, sum := func() (*switchnet.Schedule, *stream.Summary) {
		rt, err := stream.New(src, stream.Config{Switch: switchnet.UnitSwitch(1), Policy: stream.FIFO{}, VerifyEvery: 64})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return nil, sum
	}()
	if sum.Rounds != 2 {
		t.Fatalf("processed %d rounds, want 2 (idle gap must be skipped)", sum.Rounds)
	}
	if sum.Round != 1<<40+1 {
		t.Fatalf("final round %d, want %d", sum.Round, 1<<40+1)
	}
	if sum.MaxResponse != 1 {
		t.Fatalf("max response %d, want 1", sum.MaxResponse)
	}
	if sum.WindowsVerified != 2 {
		t.Fatalf("%d windows verified, want 2 (one per window that checked a round)", sum.WindowsVerified)
	}
}

// TestStreamByName pins the policy table: AllNames lists exactly the
// resolvable policies — the paper's heuristics, then the natives Names
// lists — every resolved policy reports its table name, only the natives
// are Shardable, consecutive resolutions are distinct instances (no
// shared rotation or scratch state between runtimes), and unknown names
// stay nil.
func TestStreamByName(t *testing.T) {
	want := []string{"MaxCard", "MinRTime", "MaxWeight", "RoundRobin", "OldestFirst", "WeightedISLIP", "StreamFIFO"}
	if got := stream.AllNames(); !slices.Equal(got, want) {
		t.Fatalf("AllNames() = %v, want %v", got, want)
	}
	if got := stream.Names(); !slices.Equal(got, want[3:]) {
		t.Fatalf("Names() = %v, want %v", got, want[3:])
	}
	for i, name := range want {
		p := stream.ByName(name)
		if p == nil || p.Name() != name {
			t.Fatalf("%s not resolvable to itself", name)
		}
		if _, shardable := p.(stream.Shardable); shardable != (i >= 3) {
			t.Fatalf("%s: Shardable %v, want %v", name, shardable, i >= 3)
		}
		if q := stream.ByName(name); q == p && name != "StreamFIFO" {
			// FIFO is a stateless value type, so equality is fine there;
			// the stateful policies must come out as fresh instances.
			t.Fatalf("%s: ByName returned a shared instance", name)
		}
	}
	if p := stream.ByName("nope"); p != nil {
		t.Fatal("unknown name resolved")
	}
}

// TestRoundRobinExactRotation pins the fixed pointer semantics: the
// pointer stores the last-served output *port* and resumes at its
// successor in port order, so with three persistently-active VOQs at one
// input the service sequence is a perfect port-order rotation. (The old
// pointer stored a *position* in the swap-delete-reordered active list,
// which drifts off port order as soon as the list churns.)
func TestRoundRobinExactRotation(t *testing.T) {
	var flows []switchnet.Flow
	for i := 0; i < 3; i++ {
		for _, out := range []int{1, 4, 7} {
			flows = append(flows, switchnet.Flow{In: 0, Out: out, Demand: 1, Release: 0})
		}
	}
	var got []int
	rt, err := stream.New(&sliceSource{flows: flows}, stream.Config{
		Switch: switchnet.NewSwitch(1, 8, 1),
		Policy: &stream.RoundRobin{},
		OnSchedule: func(_ int64, f switchnet.Flow, round int) {
			if round != len(got) {
				t.Fatalf("round %d served out of order (have %d serves)", round, len(got))
			}
			got = append(got, f.Out)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 7, 1, 4, 7, 1, 4, 7}
	if len(got) != len(want) {
		t.Fatalf("served %d flows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("service sequence %v, want perfect rotation %v", got, want)
		}
	}
}

// TestRoundRobinFairUnderChurn is the fairness regression test for the
// rotation-pointer fix: under random VOQ churn (queues emptying and
// refilling, so the active list swap-deletes constantly) no VOQ may be
// overtaken — between two consecutive serves of the same output, every
// other output whose VOQ stayed non-empty throughout must be served at
// least once. Port-order rotation guarantees it; the old position-based
// pointer does not survive the list reordering.
func TestRoundRobinFairUnderChurn(t *testing.T) {
	const (
		outs  = 6
		total = 240
	)
	rng := rand.New(rand.NewSource(11))
	var flows []switchnet.Flow
	for i := 0; i < total; i++ {
		flows = append(flows, switchnet.Flow{In: 0, Out: rng.Intn(outs), Demand: 1, Release: i / 2})
	}

	type serve struct{ round, out int }
	var serves []serve
	rt, err := stream.New(&sliceSource{flows: flows}, stream.Config{
		Switch: switchnet.NewSwitch(1, outs, 1),
		Policy: &stream.RoundRobin{},
		OnSchedule: func(_ int64, f switchnet.Flow, round int) {
			serves = append(serves, serve{round, f.Out})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(serves) != total {
		t.Fatalf("served %d of %d flows", len(serves), total)
	}

	// Replay queue depths: depthAtPick[r][o] is VOQ (0, o)'s depth when
	// the policy ran in round r (after that round's arrivals).
	maxRound := serves[len(serves)-1].round
	depthAtPick := make([][outs]int, maxRound+1)
	var depth [outs]int
	servedAt := make(map[int]int, len(serves)) // round -> out
	for _, s := range serves {
		servedAt[s.round] = s.out
	}
	next := 0
	for r := 0; r <= maxRound; r++ {
		for next < len(flows) && flows[next].Release <= r {
			depth[flows[next].Out]++
			next++
		}
		depthAtPick[r] = depth
		if o, ok := servedAt[r]; ok {
			depth[o]--
		} else {
			t.Fatalf("round %d served nothing with flows pending", r)
		}
	}

	// The no-overtake invariant, per output.
	for o := 0; o < outs; o++ {
		prev := -1
		for _, s := range serves {
			if s.out != o {
				continue
			}
			if prev >= 0 {
				for other := 0; other < outs; other++ {
					if other == o {
						continue
					}
					active := true
					served := false
					for r := prev + 1; r <= s.round; r++ {
						if depthAtPick[r][other] == 0 {
							active = false
							break
						}
						if servedAt[r] == other {
							served = true
						}
					}
					if active && !served {
						t.Fatalf("output %d served twice (rounds %d and %d) while output %d stayed active unserved",
							o, prev, s.round, other)
					}
				}
			}
			prev = s.round
		}
	}
}

// TestWeightedISLIPServesOldestHeadUnderChurn is the starvation/
// no-overtake regression test for the age-weighted policies, mirroring
// the PR 3 RoundRobin churn test: under adversarial VOQ churn (queues
// constantly emptying and refilling, so the active lists swap-delete
// every round, plus a persistently hot VOQ) a single unit-capacity input
// must always serve the globally oldest head — no VOQ is ever served
// while an older head waits at another VOQ, which is the age-weighted
// analogue of rotation fairness and the property that makes starvation
// impossible (a waiting head only gets older until nothing outranks it).
// The same replay also pins FIFO-within-VOQ: every served flow is its
// queue's head.
func TestWeightedISLIPServesOldestHeadUnderChurn(t *testing.T) {
	const outs = 6
	const total = 300
	cfg := workload.ChurnConfig{Outs: outs, PerRound: 2, HotOuts: 1, MaxFlows: total}
	for _, mk := range []func() stream.Policy{
		func() stream.Policy { return &stream.WeightedISLIP{} },
		func() stream.Policy { return &stream.OldestFirst{} }, // same guarantee, same harness
	} {
		pol := mk()
		// Replay copy: the churn source is deterministic per seed, so a
		// second instance yields the exact flow sequence the runtime saw.
		replay := workload.NewChurnSource(cfg, rand.New(rand.NewSource(11)))
		var flows []switchnet.Flow
		for {
			f, ok := replay.Next()
			if !ok {
				break
			}
			flows = append(flows, f)
		}

		type serve struct {
			round int
			seq   int64
		}
		var serves []serve
		src := workload.NewChurnSource(cfg, rand.New(rand.NewSource(11)))
		rt, err := stream.New(src, stream.Config{
			Switch: src.Switch(),
			Policy: pol,
			Shards: 1,
			OnSchedule: func(seq int64, _ switchnet.Flow, round int) {
				serves = append(serves, serve{round, seq})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if len(serves) != total {
			t.Fatalf("%s: served %d of %d flows", pol.Name(), len(serves), total)
		}

		// Replay the VOQ contents round by round: heads[o] is the front of
		// queue (0, o); the served flow must be its queue's head and at
		// least as old as every other queue's head at pick time.
		queues := make([][]int64, outs) // per out: pending seqs in FIFO order
		next := 0
		si := 0
		lastRel := -1
		for r := 0; si < len(serves); r++ {
			for next < len(flows) && flows[next].Release <= r {
				queues[flows[next].Out] = append(queues[flows[next].Out], int64(next))
				next++
			}
			if serves[si].round != r {
				// Unit input capacity and pending flows: the policy must
				// serve every round until drained.
				pending := 0
				for o := 0; o < outs; o++ {
					pending += len(queues[o])
				}
				if pending > 0 {
					t.Fatalf("%s: round %d served nothing with %d flows pending", pol.Name(), r, pending)
				}
				continue
			}
			sv := serves[si]
			si++
			out := flows[sv.seq].Out
			if len(queues[out]) == 0 || queues[out][0] != sv.seq {
				t.Fatalf("%s: round %d served seq %d which is not the head of VOQ %d (overtake within the queue)",
					pol.Name(), r, sv.seq, out)
			}
			rel := flows[sv.seq].Release
			if rel < lastRel {
				t.Fatalf("%s: round %d served release %d after release %d (global age order violated)",
					pol.Name(), r, rel, lastRel)
			}
			lastRel = rel
			for o := 0; o < outs; o++ {
				if o == out || len(queues[o]) == 0 {
					continue
				}
				if head := flows[queues[o][0]].Release; head < rel {
					t.Fatalf("%s: round %d served VOQ %d (head release %d) while VOQ %d's older head (release %d) waited",
						pol.Name(), r, out, rel, o, head)
				}
			}
			queues[out] = queues[out][1:]
		}
	}
}

// TestStreamStallAbortsExactly pins the stall guard to the documented
// count: the run aborts after exactly DefaultStallRounds consecutive
// empty rounds, not one more.
func TestStreamStallAbortsExactly(t *testing.T) {
	src := &sliceSource{flows: []switchnet.Flow{{In: 0, Out: 0, Demand: 1, Release: 0}}}
	rt, err := stream.New(src, stream.Config{
		Switch: switchnet.UnitSwitch(2),
		Policy: noopPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run()
	if err == nil {
		t.Fatal("stalled run did not fail")
	}
	if want := fmt.Sprintf("for %d consecutive rounds", stream.DefaultStallRounds); !strings.Contains(err.Error(), want) {
		t.Fatalf("stall error does not report the exact round count: %v", err)
	}
	if got := rt.Snapshot().Rounds; got != stream.DefaultStallRounds {
		t.Fatalf("aborted after %d processed rounds, want exactly %d", got, stream.DefaultStallRounds)
	}
}

// youngestFirst takes pending flows newest-first — the adversarial access
// pattern for the runtime's VOQ storage, since every take removes from the
// tail of its queue while older flows stay pending, so every departure
// unlinks a tail and none a head.
type youngestFirst struct{ ids []stream.ID }

func (*youngestFirst) Name() string { return "youngestFirst" }
func (p *youngestFirst) Pick(v *stream.View) {
	p.ids = p.ids[:0]
	v.Each(func(id stream.ID, _ int64, _ switchnet.Flow) bool {
		p.ids = append(p.ids, id)
		return true
	})
	for i := len(p.ids) - 1; i >= 0; i-- {
		v.Take(p.ids[i])
	}
}

// TestStreamYoungestFirstDrain drains a long same-VOQ backlog newest-first
// with verification on: the runtime must keep FIFO iteration coherent
// (VOQHead stays the oldest pending flow) while the queue is unlinked from
// its tail, and the resulting schedule must still pass the oracle.
func TestStreamYoungestFirstDrain(t *testing.T) {
	const flows = 160
	var fs []switchnet.Flow
	for i := 0; i < flows; i++ {
		fs = append(fs, switchnet.Flow{In: 0, Out: 0, Demand: 1, Release: 0})
	}
	inst := &switchnet.Instance{Switch: switchnet.UnitSwitch(2), Flows: fs}
	res, sum := mustReplay(t, inst, stream.Config{Policy: &youngestFirst{}, VerifyEvery: 7})
	sched := res.Schedule
	if sum.Completed != flows {
		t.Fatalf("completed %d of %d", sum.Completed, flows)
	}
	if !sched.Complete() {
		t.Fatal("incomplete schedule")
	}
	if _, err := verify.CheckSchedule(inst, sched, inst.Switch.Caps()); err != nil {
		t.Fatal(err)
	}
	// Newest-first on one unit-capacity VOQ is exactly LIFO: the oldest
	// flow waits for everyone, the last arrival goes first.
	if sum.MaxResponse != flows {
		t.Fatalf("max response %d, want %d (oldest flow drains last)", sum.MaxResponse, flows)
	}
}

// TestStreamShardedCrossK is the sharding equivalence property: replaying
// the same finite instances at K in {1, 2, 4} must stay verifier-clean
// with identical Admitted/Completed totals, and every (policy, K) run
// must be deterministic — two runs produce bit-identical schedules.
func TestStreamShardedCrossK(t *testing.T) {
	cfg := workload.PoissonConfig{M: 8, T: 12, Ports: 6, Cap: 2, MaxDemand: 2}
	var policies []func() stream.Policy
	for _, name := range stream.Names() {
		policies = append(policies, func() stream.Policy { return stream.ByName(name) })
	}
	for seed := int64(1); seed <= 3; seed++ {
		inst := cfg.Generate(rand.New(rand.NewSource(seed)))
		if inst.N() == 0 {
			continue
		}
		for _, mk := range policies {
			name := mk().Name()
			for _, K := range []int{1, 2, 4} {
				res, sum := mustReplay(t, inst, stream.Config{Policy: mk(), Shards: K, VerifyEvery: 5})
				first := res.Schedule
				if sum.Shards != K {
					t.Fatalf("%s seed %d: ran with %d shards, want %d", name, seed, sum.Shards, K)
				}
				if sum.Admitted != int64(inst.N()) || sum.Completed != int64(inst.N()) {
					t.Fatalf("%s seed %d K=%d: admitted %d / completed %d of %d",
						name, seed, K, sum.Admitted, sum.Completed, inst.N())
				}
				if !first.Complete() {
					t.Fatalf("%s seed %d K=%d: incomplete schedule", name, seed, K)
				}
				if _, err := verify.CheckSchedule(inst, first, inst.Switch.Caps()); err != nil {
					t.Fatalf("%s seed %d K=%d: schedule rejected by oracle: %v", name, seed, K, err)
				}
				if sum.WindowsVerified == 0 {
					t.Fatalf("%s seed %d K=%d: no verification windows ran", name, seed, K)
				}
				again, _ := mustReplay(t, inst, stream.Config{Policy: mk(), Shards: K, VerifyEvery: 5})
				for f := range first.Round {
					if first.Round[f] != again.Schedule.Round[f] {
						t.Fatalf("%s seed %d K=%d: nondeterministic — flow %d at round %d then %d",
							name, seed, K, f, first.Round[f], again.Schedule.Round[f])
					}
				}
			}
		}
	}
}

// TestStreamShardedBackpressure drives an overloaded switch through a tiny
// admission limit with a sharded runtime: the global pending bound must
// hold across shards and nothing may be dropped.
func TestStreamShardedBackpressure(t *testing.T) {
	const maxPending = 32
	const flows = 2000
	src := workload.NewArrivalSource(workload.ArrivalConfig{
		Ports: 8, M: 12, MaxFlows: flows,
	}, rand.New(rand.NewSource(5)))
	rt, err := stream.New(src, stream.Config{
		Switch:      src.Switch(),
		Policy:      &stream.RoundRobin{},
		Shards:      4,
		MaxPending:  maxPending,
		VerifyEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != flows {
		t.Fatalf("completed %d of %d", sum.Completed, flows)
	}
	if sum.PeakPending > maxPending {
		t.Fatalf("peak pending %d exceeds admission limit %d", sum.PeakPending, maxPending)
	}
	if sum.Backpressured == 0 {
		t.Fatal("overloaded stream saw no backpressure")
	}
	if sum.WindowsVerified == 0 {
		t.Fatal("no verification windows ran")
	}
}

// TestStreamShardedSnapshotRace exercises concurrent Snapshot calls
// against a sharded drain: the round loop's metric writes and the
// snapshot readers run under the race detector.
func TestStreamShardedSnapshotRace(t *testing.T) {
	src := workload.NewArrivalSource(workload.ArrivalConfig{
		Ports: 8, M: 8, MaxFlows: 20000,
	}, rand.New(rand.NewSource(3)))
	rt, err := stream.New(src, stream.Config{
		Switch: src.Switch(),
		Policy: &stream.RoundRobin{},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Poll rather than busy-spin: on a single-core box a hot
			// Snapshot loop starves the coordinator.
			tick := time.NewTicker(200 * time.Microsecond)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					s := rt.Snapshot()
					if s.Completed > s.Admitted {
						t.Error("completed exceeds admitted")
						return
					}
				}
			}
		}()
	}
	sum, err := rt.Run()
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 20000 {
		t.Fatalf("completed %d of 20000", sum.Completed)
	}
}

// TestShardedRunStartsNoGoroutine: the shards are a partition, not a
// thread pool. A K = 4 run starts no goroutine at all, so every
// OnSchedule callback sees the goroutine count Run's caller saw before it.
func TestShardedRunStartsNoGoroutine(t *testing.T) {
	assertRunStartsNoGoroutine(t, stream.Config{Policy: stream.ByName("OldestFirst"), Shards: 4})
}

// TestRunStartsNoGoroutine: window verification runs on the coordinator,
// at each window's flush, so a run that verifies starts no goroutine
// either.
func TestRunStartsNoGoroutine(t *testing.T) {
	sum := assertRunStartsNoGoroutine(t, stream.Config{Policy: stream.ByName("OldestFirst"), VerifyEvery: 16})
	if sum.WindowsVerified < 2 {
		t.Fatalf("%d windows verified; the run missed the verification path", sum.WindowsVerified)
	}
}

// assertRunStartsNoGoroutine runs cfg over 4,000 arrivals on an 8-port
// switch and fails unless every OnSchedule callback sees the goroutine
// count from before Run.
func assertRunStartsNoGoroutine(t *testing.T, cfg stream.Config) *stream.Summary {
	t.Helper()
	src := workload.NewArrivalSource(workload.ArrivalConfig{
		Ports: 8, M: 12, MaxFlows: 4000,
	}, rand.New(rand.NewSource(2)))
	before, calls, worst := 0, 0, 0
	cfg.Switch = src.Switch()
	cfg.OnSchedule = func(int64, switchnet.Flow, int) {
		calls++
		if n := runtime.NumGoroutine(); n != before && worst == before {
			worst = n
		}
	}
	rt, err := stream.New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Let goroutines earlier tests left winding down exit first: the count
	// must hold still for a while before it is the baseline.
	before = runtime.NumGoroutine()
	for still := 0; still < 20; {
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n == before {
			still++
		} else {
			before, still = n, 0
		}
	}
	worst = before
	sum, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("nothing scheduled")
	}
	if worst != before {
		t.Fatalf("%d goroutines inside OnSchedule, %d before Run", worst, before)
	}
	return sum
}

// TestShardedRejectsUnshardablePolicy: the paper's heuristics match over
// the whole pending set, so explicitly requesting shards with one must be
// a construction error naming the policy, and defaulted shard counts
// must quietly stay at 1.
func TestShardedRejectsUnshardablePolicy(t *testing.T) {
	src := &sliceSource{}
	for _, name := range stream.PaperNames() {
		_, err := stream.New(src, stream.Config{Switch: switchnet.UnitSwitch(4), Policy: stream.ByName(name), Shards: 2})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
			t.Fatalf("%s at 2 shards: construction returned %v, want an error naming the policy", name, err)
		}
		rt, err := stream.New(src, stream.Config{Switch: switchnet.UnitSwitch(4), Policy: stream.ByName(name)})
		if err != nil {
			t.Fatal(err)
		}
		if got := rt.Snapshot().Shards; got != 1 {
			t.Fatalf("defaulted %s runtime has %d shards, want 1", name, got)
		}
	}
	for _, name := range stream.Names() {
		if _, ok := stream.ByName(name).(stream.Shardable); !ok {
			t.Fatalf("native policy %s is not Shardable", name)
		}
	}
}

// TestShardedReconcileDrainsPastTakenHead: a VOQ head a shard has just
// taken is not a blocked head — the same pick must drain the output
// capacity left behind it. Two unit flows on the same port pair of a
// capacity-2 switch must both go in round 0 at any shard count, exactly
// as an unsharded run schedules them.
func TestShardedReconcileDrainsPastTakenHead(t *testing.T) {
	for _, K := range []int{1, 2} {
		flows := []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 0, Out: 0, Demand: 1, Release: 0},
		}
		rounds := make([]int, 0, 2)
		rt, err := stream.New(&sliceSource{flows: flows}, stream.Config{
			Switch: switchnet.NewSwitch(2, 2, 2),
			Policy: &stream.RoundRobin{},
			Shards: K,
			OnSchedule: func(_ int64, _ switchnet.Flow, round int) {
				rounds = append(rounds, round)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		for _, r := range rounds {
			if r != 0 {
				t.Fatalf("K=%d: scheduled rounds %v, want both in round 0 (a shard idled capacity)", K, rounds)
			}
		}
	}
}
