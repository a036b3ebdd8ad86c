package stream

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// sliceSource replays a fixed flow slice, standing in for a finite
// recorded stream.
type sliceSource struct {
	flows []switchnet.Flow
	at    int
}

func (s *sliceSource) Next() (switchnet.Flow, bool) {
	if s.at >= len(s.flows) {
		return switchnet.Flow{}, false
	}
	f := s.flows[s.at]
	s.at++
	return f, true
}

func (s *sliceSource) PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow {
	for n := 0; n < max && s.at < len(s.flows) && s.flows[s.at].Release <= round; n++ {
		dst = append(dst, s.flows[s.at])
		s.at++
	}
	return dst
}

func (s *sliceSource) Err() error { return nil }

// genFlows builds a deterministic finite workload: per flows per round
// over rounds rounds on a ports-port unit switch, endpoints cycling so
// several VOQs stay busy.
func genFlows(ports, rounds, per int) []switchnet.Flow {
	var out []switchnet.Flow
	for r := 0; r < rounds; r++ {
		for i := 0; i < per; i++ {
			k := r*per + i
			out = append(out, switchnet.Flow{
				In:      k % ports,
				Out:     (k*3 + 1) % ports,
				Demand:  1,
				Release: r,
			})
		}
	}
	return out
}

// flowResp is a completion record for multiset comparison.
type flowResp struct {
	f     switchnet.Flow
	round int
}

// unshardablePolicy is a minimal Policy without Shardable, for reload
// rejection tests on sharded runtimes.
type unshardablePolicy struct{}

func (unshardablePolicy) Name() string { return "unshardable-test" }
func (unshardablePolicy) Pick(v *View) {}

// TestResumeValidation pins the construction-time rejection of resumes
// that cannot be restored faithfully.
func TestResumeValidation(t *testing.T) {
	sw := switchnet.UnitSwitch(4)
	base := func() Config {
		return Config{Switch: sw, Policy: ByName("StreamFIFO"), Shards: 1, MaxPending: 8}
	}
	ok := Summary{Admitted: 10, Completed: 7, Dropped: 0, Expired: 0}
	three := genFlows(4, 3, 1) // releases 0, 1, 2
	with := func(mut func(fs []switchnet.Flow)) []switchnet.Flow {
		fs := append([]switchnet.Flow(nil), three...)
		mut(fs)
		return fs
	}
	for _, tc := range []struct {
		name string
		st   CheckpointState
	}{
		{"negative round", CheckpointState{Round: -1, Pending: 3, Flows: three, Summary: ok}},
		{"negative pending", CheckpointState{Round: 5, Pending: -1, Summary: ok}},
		{"pending over MaxPending", CheckpointState{Round: 5, Pending: 9, Flows: genFlows(4, 9, 1), Summary: Summary{Admitted: 9, Completed: 0}}},
		{"unbalanced counters", CheckpointState{Round: 5, Pending: 3, Flows: three, Summary: Summary{Admitted: 11, Completed: 7}}},
		{"negative counter", CheckpointState{Round: 5, Pending: 3, Flows: three, Summary: Summary{Admitted: 10, Completed: 7, TotalResponse: -1}}},
		{"flows short of pending", CheckpointState{Round: 5, Pending: 3, Flows: three[:2], Summary: ok}},
		{"two flows past pending", CheckpointState{Round: 5, Pending: 1, Flows: three, Summary: Summary{Admitted: 8, Completed: 7}}},
		{"released after round", CheckpointState{Round: 1, Pending: 3, Flows: three, Summary: ok}},
		{"lookahead released after round", CheckpointState{Round: 0, Pending: 1, Flows: three[:2], Summary: Summary{Admitted: 8, Completed: 7}}},
		{"releases decrease", CheckpointState{Round: 5, Pending: 3, Flows: with(func(fs []switchnet.Flow) { fs[2].Release = 0 }), Summary: ok}},
		{"inadmissible flow", CheckpointState{Round: 5, Pending: 3, Flows: with(func(fs []switchnet.Flow) { fs[1].Demand = 2 }), Summary: ok}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			cfg.Resume = &tc.st
			if _, err := New(&sliceSource{}, cfg); err == nil {
				t.Fatalf("New accepted resume %+v", tc.st)
			}
		})
	}
	// Rotation pointers a restored pick would start from: RoundRobin's per
	// input in [-1, NumOut), WeightedISLIP's grants per output in
	// [-1, NumIn) and accepts per input in [-1, NumOut). A 3x5 switch tells
	// the two ranges apart; a malformed pointer once panicked Run.
	for _, tc := range []struct {
		name, pol string
		scratch   []int64
		ok        bool
	}{
		{"RoundRobin pointers at the bounds", "RoundRobin", []int64{-1, 4, 0}, true},
		{"RoundRobin pointer below -1", "RoundRobin", []int64{-500, 0, 0}, false},
		{"RoundRobin pointer at NumOut", "RoundRobin", []int64{0, 5, 0}, false},
		{"ISLIP pointers at the bounds", "WeightedISLIP", []int64{2, -1, 0, 1, 2, 4, -1, 0}, true},
		{"ISLIP grant at NumIn", "WeightedISLIP", []int64{3, -1, 0, 1, 2, 4, -1, 0}, false},
		{"ISLIP grant below -1", "WeightedISLIP", []int64{0, -2, 0, 1, 2, 4, -1, 0}, false},
		{"ISLIP accept at NumOut", "WeightedISLIP", []int64{2, -1, 0, 1, 2, 5, -1, 0}, false},
		{"ISLIP accept past int32", "WeightedISLIP", []int64{2, -1, 0, 1, 2, 1 << 32, -1, 0}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw := switchnet.NewSwitch(3, 5, 1)
			flows := []switchnet.Flow{{In: 0, Out: 4, Demand: 1}, {In: 2, Out: 0, Demand: 1}, {In: 1, Out: 3, Demand: 1}}
			rt, err := New(&sliceSource{}, Config{Switch: sw, Policy: ByName(tc.pol), MaxPending: 8, Resume: &CheckpointState{
				Round: 5, Pending: 3, Flows: flows, Summary: Summary{Admitted: 3},
				Policy: tc.pol, Scratch: [][]int64{tc.scratch},
			}})
			if (err == nil) != tc.ok {
				t.Fatalf("New returned %v; want accepted %v", err, tc.ok)
			}
			if err == nil {
				if sum, err := rt.Run(); err != nil || sum.Completed != 3 {
					t.Fatalf("accepted pointers %v, then the drain returned %+v, %v", tc.scratch, sum, err)
				}
			}
		})
	}
	// The balanced case constructs and reports the baselines verbatim,
	// with the restored pending set already resident.
	cfg := base()
	cfg.Resume = &CheckpointState{Round: 5, Pending: 3, Flows: three, Summary: Summary{
		Admitted: 10, Completed: 7, TotalResponse: 21, MaxResponse: 6, Rounds: 5, PeakPending: 4,
	}}
	rt, err := New(&sliceSource{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rt.Snapshot()
	if s.Round != 5 || s.Rounds != 5 || s.Completed != 7 || s.TotalResponse != 21 || s.MaxResponse != 6 || s.PeakPending != 4 {
		t.Fatalf("restored baselines not visible in snapshot: %+v", s)
	}
	if s.Pending != 3 || s.Admitted != 10 {
		t.Fatalf("snapshot right after New: pending %d, admitted %d; want the checkpoint's 3 and 10", s.Pending, s.Admitted)
	}
}

// TestResumeReplaysPrefixThenTail pins the order a restore admits in: the
// restored pending set under sequence numbers 0..Pending-1, then the
// lookahead, then the source tail — read through PullBatch when it is
// released by the resume round, through the idle step's Next when it is
// released later — and the tail's first batch counts the restored flows
// against MaxPending.
func TestResumeReplaysPrefixThenTail(t *testing.T) {
	sw := switchnet.UnitSwitch(4)
	prefix := genFlows(4, 3, 1) // releases 0, 1, 2
	tail := func(n, rel int) []switchnet.Flow {
		out := make([]switchnet.Flow, n)
		for i := range out {
			out[i] = switchnet.Flow{In: i % 4, Out: (i + 2) % 4, Demand: 1, Release: rel}
		}
		return out
	}
	drain := func(t *testing.T, st *CheckpointState, rest []switchnet.Flow, maxPending int) *Summary {
		t.Helper()
		want := append(append([]switchnet.Flow(nil), st.Flows...), rest...)
		scheduled := 0
		rt, err := New(&sliceSource{flows: rest}, Config{
			Switch: sw, Policy: ByName("StreamFIFO"), MaxPending: maxPending, Resume: st,
			OnSchedule: func(seq int64, f switchnet.Flow, _ int) {
				scheduled++
				if seq >= int64(len(want)) || f != want[seq] {
					t.Errorf("seq %d is %+v; want the admission order %+v", seq, f, want)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		if scheduled != len(want) || sum.Admitted != st.SourceFlows()+int64(len(rest)) {
			t.Fatalf("scheduled %d of %d flows: %+v", scheduled, len(want), sum)
		}
		return sum
	}
	t.Run("PullBatch", func(t *testing.T) {
		drain(t, &CheckpointState{Round: 2, Pending: 3, Flows: prefix, Summary: Summary{Admitted: 3}}, tail(4, 2), 0)
	})
	t.Run("Next", func(t *testing.T) {
		// Only a lookahead: it is admitted first, and the tail, released
		// after the backlog drains, is fetched by the idle step.
		drain(t, &CheckpointState{Round: 2, Pending: 0, Flows: prefix[2:], Summary: Summary{Admitted: 5, Completed: 5}}, tail(3, 9), 0)
	})
	t.Run("batch respects max across the seam", func(t *testing.T) {
		sum := drain(t, &CheckpointState{Round: 2, Pending: 3, Flows: prefix, Summary: Summary{Admitted: 3, PeakPending: 3}}, tail(4, 2), 4)
		// One tail flow fits beside the three restored ones at the resume
		// round; the other three wait, so they are backpressured.
		if sum.PeakPending != 4 || sum.Backpressured != 3 {
			t.Fatalf("peak pending %d, backpressured %d; want 4 and 3", sum.PeakPending, sum.Backpressured)
		}
	})
}

// TestPendingFlowsInAdmissionOrder pins PendingFlows to the order a
// checkpoint stores: a K = 2 restore whose pending flows alternate between
// the shards reads back, before Run, exactly as Flows[:Pending] — not one
// shard's flows after the other's.
func TestPendingFlowsInAdmissionOrder(t *testing.T) {
	flows := genFlows(4, 5, 2) // inputs cycle 0, 1, 2, 3: shards alternate 0, 1
	st := &CheckpointState{Round: 4, Pending: 9, Flows: flows, Summary: Summary{Admitted: 9}}
	rt, err := New(&sliceSource{}, Config{
		Switch: switchnet.UnitSwitch(4), Policy: ByName("RoundRobin"), Shards: 2, Resume: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, round, err := rt.PendingFlows(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if round != st.Round || !slices.Equal(got, st.Flows[:st.Pending]) {
		t.Fatalf("PendingFlows at round %d = %v; want round %d and %v", round, got, st.Round, st.Flows[:st.Pending])
	}
	ck, err := rt.CheckpointState(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ck.Flows[:ck.Pending], got) {
		t.Fatalf("CheckpointState holds %v, PendingFlows %v", ck.Flows[:ck.Pending], got)
	}
	// After Run returns, every caller reads the state itself, so
	// concurrent snapshots must share no merge scratch.
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.CheckpointState(context.Background(), nil); err != nil {
				t.Error(err)
			}
			if _, _, err := rt.PendingFlows(context.Background(), nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestResumeRenumbersSequence pins the sequence numbers OnSchedule
// reports after a restore: a checkpoint carries none, so the restored
// pending flows are numbered 0 through Pending-1 in their checkpointed
// order, the lookahead next, and the source's flows after it — whatever
// numbers the flows had in the run that wrote the checkpoint (here 7
// admissions came before them).
func TestResumeRenumbersSequence(t *testing.T) {
	pending := []switchnet.Flow{
		{In: 2, Out: 0, Demand: 1, Release: 3},
		{In: 0, Out: 1, Demand: 1, Release: 4},
		{In: 1, Out: 3, Demand: 1, Release: 4},
	}
	look := switchnet.Flow{In: 3, Out: 2, Demand: 1, Release: 5}
	tail := []switchnet.Flow{{In: 0, Out: 2, Demand: 1, Release: 6}, {In: 2, Out: 2, Demand: 1, Release: 6}}
	st := &CheckpointState{
		Round: 5, Pending: len(pending), Flows: append(slices.Clone(pending), look),
		Summary: Summary{Admitted: 10, Completed: 7},
	}
	got := map[switchnet.Flow]int64{}
	rt, err := New(&sliceSource{flows: tail}, Config{
		Switch: switchnet.UnitSwitch(4), Policy: ByName("OldestFirst"), Resume: st,
		OnSchedule: func(seq int64, f switchnet.Flow, _ int) { got[f] = seq },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	want := append(append(slices.Clone(pending), look), tail...)
	if len(got) != len(want) {
		t.Fatalf("%d flows scheduled, want %d", len(got), len(want))
	}
	for i, f := range want {
		if seq, ok := got[f]; !ok || seq != int64(i) {
			t.Fatalf("flow %+v scheduled under seq %d (reported %v), want %d", f, seq, ok, i)
		}
	}
}

// TestVerifyEveryValidation: a negative window is refused at
// construction rather than read as "off".
func TestVerifyEveryValidation(t *testing.T) {
	cfg := Config{Switch: switchnet.UnitSwitch(4), Policy: ByName("StreamFIFO"), VerifyEvery: -3}
	if _, err := New(&sliceSource{}, cfg); err == nil || !strings.Contains(err.Error(), "VerifyEvery -3 is negative") {
		t.Fatalf("New with VerifyEvery -3: %v, want the negative-window error", err)
	}
	cfg.VerifyEvery = 0
	if _, err := New(&sliceSource{}, cfg); err != nil {
		t.Fatalf("New with VerifyEvery 0 (off): %v", err)
	}
}

// TestCheckpointConfigValidation pins the trigger's construction checks.
func TestCheckpointConfigValidation(t *testing.T) {
	sw := switchnet.UnitSwitch(4)
	cfg := Config{Switch: sw, Policy: ByName("StreamFIFO"), Shards: 1, CheckpointEveryRounds: -1}
	if _, err := New(&sliceSource{}, cfg); err == nil {
		t.Fatal("New accepted a negative CheckpointEveryRounds")
	}
	cfg.CheckpointEveryRounds = 8
	if _, err := New(&sliceSource{}, cfg); err == nil {
		t.Fatal("New accepted CheckpointEveryRounds without OnCheckpoint")
	}
}

// TestCheckpointRestoreContinuity is the core restore property at the
// stream layer: checkpoint an uninterrupted drain mid-run, restore a
// fresh runtime from that state (Config.Resume plus the skipped source
// tail), drain it, and the restored run's final summary and completion
// multiset must match the uninterrupted run exactly — same flows, same
// rounds, same response accounting charged from original releases.
func TestCheckpointRestoreContinuity(t *testing.T) {
	const ports, rounds, per = 6, 40, 9
	flows := genFlows(ports, rounds, per)
	sw := switchnet.UnitSwitch(ports)
	for _, pol := range []string{"StreamFIFO", "OldestFirst"} {
		t.Run(pol, func(t *testing.T) {
			// Uninterrupted reference drain.
			var ref []flowResp
			rtB, err := New(&sliceSource{flows: flows}, Config{
				Switch: sw, Policy: ByName(pol), Shards: 1, MaxPending: 24,
				OnSchedule: func(seq int64, f switchnet.Flow, round int) {
					ref = append(ref, flowResp{f, round})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			want, err := rtB.Run()
			if err != nil {
				t.Fatal(err)
			}

			// Checkpointed run: capture at the first cadence firing, then
			// stop. Completions recorded strictly before the capture round
			// belong to the checkpoint's past (every round's picks retire
			// in that round, before the capture).
			var st CheckpointState
			var pre []flowResp
			captured := false
			var rtA *Runtime
			rtA, err = New(&sliceSource{flows: flows}, Config{
				Switch: sw, Policy: ByName(pol), Shards: 1, MaxPending: 24,
				CheckpointEveryRounds: 13,
				OnCheckpoint: func(s *CheckpointState) {
					if !captured {
						captured = true
						st = *s
						st.Flows = append([]switchnet.Flow(nil), s.Flows...)
					}
					rtA.Stop()
				},
				OnSchedule: func(seq int64, f switchnet.Flow, round int) {
					pre = append(pre, flowResp{f, round})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rtA.Run(); err != nil {
				t.Fatal(err)
			}
			if !captured {
				t.Fatal("cadence never fired")
			}
			kept := pre[:0]
			for _, c := range pre {
				if c.round < st.Round {
					kept = append(kept, c)
				}
			}
			pre = kept

			// Restored drain: the checkpointed state, then the recorded
			// stream past the consumed point.
			var post []flowResp
			tail := &sliceSource{flows: flows}
			workload.Skip(tail, st.SourceFlows())
			rtC, err := New(tail, Config{
				Switch: sw, Policy: ByName(pol), Shards: 1, MaxPending: 24,
				Resume: &st,
				OnSchedule: func(seq int64, f switchnet.Flow, round int) {
					post = append(post, flowResp{f, round})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := rtC.Run()
			if err != nil {
				t.Fatal(err)
			}

			if got.Admitted != want.Admitted || got.Completed != want.Completed ||
				got.TotalResponse != want.TotalResponse || got.MaxResponse != want.MaxResponse ||
				got.Backpressured != want.Backpressured || got.Round != want.Round ||
				got.Rounds != want.Rounds || got.Pending != 0 {
				t.Fatalf("restored summary diverged:\n got %+v\nwant %+v\n(checkpoint at round %d, %d pending)", got, want, st.Round, st.Pending)
			}
			all := append(append([]flowResp(nil), pre...), post...)
			if len(all) != len(ref) {
				t.Fatalf("completion counts differ: %d split vs %d uninterrupted", len(all), len(ref))
			}
			count := func(rs []flowResp) map[flowResp]int {
				m := make(map[flowResp]int, len(rs))
				for _, r := range rs {
					m[r]++
				}
				return m
			}
			cm, rm := count(all), count(ref)
			for k, n := range rm {
				if cm[k] != n {
					t.Fatalf("completion multiset differs at %+v: split %d, uninterrupted %d", k, cm[k], n)
				}
			}
		})
	}
}

// TestCheckpointStateWhileParkedIdle pins the Parker wake path: a live
// runtime parked on an idle ChanSource must still answer checkpoint and
// pending-set requests (the request nudges the park awake), and Stop
// must interrupt the park without closing the source.
func TestCheckpointStateWhileParkedIdle(t *testing.T) {
	src := workload.NewChanSource(16)
	rt, err := New(src, Config{Switch: switchnet.UnitSwitch(4), Policy: ByName("StreamFIFO"), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() {
		_, err := rt.Run()
		runDone <- err
	}()
	// Feed a couple of flows and let the runtime drain them and park.
	src.Push(switchnet.Flow{In: 0, Out: 1, Demand: 1})
	src.Push(switchnet.Flow{In: 1, Out: 2, Demand: 1})
	deadline := time.Now().Add(5 * time.Second)
	for rt.Snapshot().Completed < 2 {
		if time.Now().After(deadline) {
			t.Fatal("runtime never drained the pushed flows")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := rt.CheckpointState(ctx, nil)
	if err != nil {
		t.Fatalf("CheckpointState on a parked runtime: %v", err)
	}
	if st.Pending != 0 || st.Summary.Completed != 2 || st.Summary.Admitted != 2 {
		t.Fatalf("parked capture wrong: %+v", st)
	}
	if _, _, err := rt.PendingFlows(ctx, nil); err != nil {
		t.Fatalf("PendingFlows on a parked runtime: %v", err)
	}
	// Stop alone must now end a parked run — no source close needed.
	rt.Stop()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not interrupt the idle park")
	}
}

// TestReloadSwapsPolicyMidRun pins live reload: the policy and admission
// settings swap between rounds without dropping the pending set, invalid
// configurations are rejected without effect, and a finished runtime
// refuses to reload.
func TestReloadSwapsPolicyMidRun(t *testing.T) {
	src := workload.NewChanSource(64)
	rt, err := New(src, Config{Switch: switchnet.UnitSwitch(4), Policy: ByName("RoundRobin"), Shards: 2, MaxPending: 32})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() {
		_, err := rt.Run()
		runDone <- err
	}()
	for i := 0; i < 8; i++ {
		src.Push(switchnet.Flow{In: i % 4, Out: (i + 1) % 4, Demand: 1})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Invalid reloads are rejected and change nothing.
	if err := rt.Reload(ctx, ReloadConfig{Policy: nil, MaxPending: 16}); err == nil {
		t.Fatal("reload accepted a nil policy")
	}
	if err := rt.Reload(ctx, ReloadConfig{Policy: ByName("RoundRobin"), MaxPending: 0}); err == nil {
		t.Fatal("reload accepted MaxPending 0")
	}
	if err := rt.Reload(ctx, ReloadConfig{Policy: unshardablePolicy{}, MaxPending: 16}); err == nil {
		t.Fatal("reload accepted an unshardable policy on a sharded runtime")
	}
	if err := rt.Reload(ctx, ReloadConfig{Policy: ByName("RoundRobin"), MaxPending: 16, Admit: AdmitLossless, Deadline: 4}); err == nil {
		t.Fatal("reload accepted a deadline under AdmitLossless")
	}

	// A valid swap applies and the runtime keeps scheduling under it.
	if err := rt.Reload(ctx, ReloadConfig{Policy: ByName("OldestFirst"), MaxPending: 16, Admit: AdmitDeadline, Deadline: 64}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		src.Push(switchnet.Flow{In: i % 4, Out: (i + 2) % 4, Demand: 1})
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.Snapshot().Completed < 16 {
		if time.Now().After(deadline) {
			t.Fatalf("post-reload runtime stopped completing: %+v", rt.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	src.Close()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	if err := rt.Reload(context.Background(), ReloadConfig{Policy: ByName("RoundRobin"), MaxPending: 16}); err == nil {
		t.Fatal("reload succeeded after the run finished")
	}
}

// TestRestorePreservesBackpressureSemantics pins that re-admitted
// checkpoint flows (whose releases predate the resume round by
// construction) are not re-counted as backpressured or admitted.
func TestRestorePreservesBackpressureSemantics(t *testing.T) {
	sw := switchnet.UnitSwitch(4)
	pending := []switchnet.Flow{
		{In: 0, Out: 1, Demand: 1, Release: 3},
		{In: 1, Out: 2, Demand: 1, Release: 4},
		{In: 2, Out: 3, Demand: 1, Release: 5},
	}
	res := &CheckpointState{Round: 9, Pending: len(pending), Flows: pending, Summary: Summary{
		Admitted: 10, Completed: 7, TotalResponse: 30, Rounds: 9, MaxResponse: 5, PeakPending: 5, Backpressured: 2,
	}}
	rt, err := New(&sliceSource{}, Config{
		Switch: sw, Policy: ByName("StreamFIFO"), Shards: 1, MaxPending: 8, Resume: res,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Admitted != 10 || sum.Completed != 10 || sum.Backpressured != 2 || sum.Pending != 0 {
		t.Fatalf("restored drain accounting wrong: %+v", sum)
	}
	// Responses stay charged from original releases: completions happen at
	// rounds >= 9, so flow released at 3 contributes >= 7.
	if sum.MaxResponse < 9+1-3 {
		t.Fatalf("restored MaxResponse %d too small for a release-3 flow completing at round >= 9", sum.MaxResponse)
	}
}

// TestShardedAgePoliciesTakeFarReleases pins that the sharded age-aware
// policies put no horizon on release rounds: a stream that idle-jumps
// past 2^40 drains at K=2, and a Reload onto either policy once the
// stream is past that point is accepted and keeps draining.
func TestShardedAgePoliciesTakeFarReleases(t *testing.T) {
	const far = 1 << 41
	flows := genFlows(4, 3, 4)
	for _, f := range genFlows(4, 3, 4) {
		f.Release += far
		flows = append(flows, f)
	}
	for _, name := range []string{"OldestFirst", "WeightedISLIP"} {
		for _, reload := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/reload=%v", name, reload), func(t *testing.T) {
				start := name
				if reload {
					start = "RoundRobin"
				}
				rt, err := New(&sliceSource{flows: flows}, Config{
					Switch: switchnet.UnitSwitch(4), Policy: ByName(start), Shards: 2, MaxPending: 32,
				})
				if err != nil {
					t.Fatal(err)
				}
				swapped := !reload
				for steps := 0; ; steps++ {
					if !swapped && rt.lastRel >= far {
						if err := rt.applyReload(ReloadConfig{Policy: ByName(name), MaxPending: 32}); err != nil {
							t.Fatalf("reload after release %d: %v", rt.lastRel, err)
						}
						swapped = true
					}
					done, err := rt.step()
					if err != nil {
						t.Fatal(err)
					}
					if done {
						break
					}
					if steps > 1<<10 {
						t.Fatal("runaway stream")
					}
				}
				if sum := rt.Snapshot(); !swapped || sum.Completed != int64(len(flows)) || sum.Round < far {
					t.Fatalf("swapped %v, summary %+v, want %d completions past round %d", swapped, sum, len(flows), far)
				}
			})
		}
	}
}
