package faultinject

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"flowsched/internal/chkpt"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// StallPolicy must stay Shardable, or the sharded chaos runs would fail
// at construction rather than at compile time.
var _ stream.Shardable = (*StallPolicy)(nil)

// fixedSource replays a slice through both source read paths.
type fixedSource struct {
	flows []switchnet.Flow
	at    int
}

func (s *fixedSource) Next() (switchnet.Flow, bool) {
	if s.at >= len(s.flows) {
		return switchnet.Flow{}, false
	}
	f := s.flows[s.at]
	s.at++
	return f, true
}

func (s *fixedSource) PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow {
	for n := 0; n < max && s.at < len(s.flows) && s.flows[s.at].Release <= round; n++ {
		dst = append(dst, s.flows[s.at])
		s.at++
	}
	return dst
}

func (s *fixedSource) Err() error { return nil }

// genFlows builds the deterministic chaos workload: per flows per round
// over rounds rounds, endpoints cycling over a ports-port unit switch.
func genFlows(ports, rounds, per int) []switchnet.Flow {
	var out []switchnet.Flow
	for r := 0; r < rounds; r++ {
		for i := 0; i < per; i++ {
			k := r*per + i
			out = append(out, switchnet.Flow{
				In:      k % ports,
				Out:     (k*5 + 2) % ports,
				Demand:  1,
				Release: r,
			})
		}
	}
	return out
}

// assertBalanced pins the accounting invariant every fault must leave
// intact.
func assertBalanced(t *testing.T, s *stream.Summary) {
	t.Helper()
	if s.Admitted != s.Completed+int64(s.Pending)+s.Dropped+s.Expired {
		t.Fatalf("accounting unbalanced: admitted %d != completed %d + pending %d + dropped %d + expired %d",
			s.Admitted, s.Completed, s.Pending, s.Dropped, s.Expired)
	}
}

type flowResp struct {
	f     switchnet.Flow
	round int
}

// TestCrashEquivalenceDifferential is the acceptance-criteria
// differential: checkpoint an arbitrary round, "kill" the run
// (abandon it mid-flight, nothing graceful), restore a fresh runtime
// through a full serialize/load round trip of the checkpoint file, and
// drain. The split run must complete exactly the same flow multiset
// with identical per-flow response rounds (charged from original
// releases) and an identical final summary as the uninterrupted run —
// for every registry policy at every supported shard count. The
// stateful policies (RoundRobin's rotation pointers, WeightedISLIP's
// grant/accept pointers) only pass because the checkpoint carries
// their scratch; the others only pass because a restore re-admits the
// pending set under its original sequence numbers and shards.
func TestCrashEquivalenceDifferential(t *testing.T) {
	const ports, rounds, per = 6, 60, 9
	flows := genFlows(ports, rounds, per)
	sw := switchnet.UnitSwitch(ports)
	for _, pol := range stream.Names() {
		for _, shards := range []int{1, 2, 4} {
			if shards > 1 {
				if _, ok := stream.ByName(pol).(stream.Shardable); !ok {
					continue
				}
			}
			for _, cadence := range []int{7, 29} {
				t.Run(fmt.Sprintf("%s/K%d/ckpt@%d", pol, shards, cadence), func(t *testing.T) {
					cfgFor := func(onSched func(int64, switchnet.Flow, int)) stream.Config {
						return stream.Config{
							Switch: sw, Policy: stream.ByName(pol), Shards: shards,
							MaxPending: 32, VerifyEvery: 16,
							OnSchedule: onSched,
						}
					}

					// Uninterrupted reference.
					var ref []flowResp
					rtB, err := stream.New(&fixedSource{flows: flows}, cfgFor(func(seq int64, f switchnet.Flow, round int) {
						ref = append(ref, flowResp{f, round})
					}))
					if err != nil {
						t.Fatal(err)
					}
					want, err := rtB.Run()
					if err != nil {
						t.Fatal(err)
					}
					assertBalanced(t, want)

					// Checkpointed run, killed at the capture: the checkpoint
					// goes through the real file envelope.
					path := filepath.Join(t.TempDir(), "ck")
					var pre []flowResp
					captured := false
					var rtA *stream.Runtime
					cfgA := cfgFor(func(seq int64, f switchnet.Flow, round int) {
						pre = append(pre, flowResp{f, round})
					})
					cfgA.CheckpointEveryRounds = cadence
					cfgA.OnCheckpoint = func(st *stream.CheckpointState) {
						if !captured {
							captured = true
							if err := chkpt.Save(path, chkpt.FromState(st, cfgA)); err != nil {
								t.Errorf("save: %v", err)
							}
						}
						rtA.Stop()
					}
					rtA, err = stream.New(&fixedSource{flows: flows}, cfgA)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := rtA.Run(); err != nil {
						t.Fatal(err)
					}
					if !captured {
						t.Fatal("cadence never fired")
					}

					// Restore from the file and drain.
					ck, err := chkpt.Load(path)
					if err != nil {
						t.Fatal(err)
					}
					if err := ck.Compatible(sw); err != nil {
						t.Fatal(err)
					}
					kept := pre[:0]
					for _, c := range pre {
						if c.round < ck.Round {
							kept = append(kept, c)
						}
					}
					pre = kept
					var post []flowResp
					tail := &fixedSource{flows: flows}
					workload.Skip(tail, ck.SourceConsumed)
					cfgC := cfgFor(func(seq int64, f switchnet.Flow, round int) {
						post = append(post, flowResp{f, round})
					})
					cfgC.Resume = ck.State()
					rtC, err := stream.New(tail, cfgC)
					if err != nil {
						t.Fatal(err)
					}
					got, err := rtC.Run()
					if err != nil {
						t.Fatal(err)
					}
					assertBalanced(t, got)

					if got.Admitted != want.Admitted || got.Completed != want.Completed ||
						got.TotalResponse != want.TotalResponse || got.MaxResponse != want.MaxResponse ||
						got.Backpressured != want.Backpressured || got.Round != want.Round ||
						got.Rounds != want.Rounds || got.Pending != 0 {
						t.Fatalf("restored summary diverged:\n got %+v\nwant %+v\n(checkpoint at round %d, %d pending)",
							got, want, ck.Round, ck.Pending)
					}
					count := func(rs []flowResp) map[flowResp]int {
						m := make(map[flowResp]int, len(rs))
						for _, r := range rs {
							m[r]++
						}
						return m
					}
					cm := count(append(append([]flowResp(nil), pre...), post...))
					rm := count(ref)
					if len(cm) != len(rm) {
						t.Fatalf("completion multisets differ in support: split %d keys, uninterrupted %d", len(cm), len(rm))
					}
					for k, n := range rm {
						if cm[k] != n {
							t.Fatalf("completion multiset differs at %+v: split %d, uninterrupted %d", k, cm[k], n)
						}
					}
				})
			}
		}
	}
}

// TestShardStallKeepsInvariants wedges the policy on a deterministic
// cadence — every shard schedules nothing for stretches of rounds — and
// requires a clean drain: verifier-clean windows, balanced accounting,
// every flow completed.
func TestShardStallKeepsInvariants(t *testing.T) {
	const ports, rounds, per = 6, 50, 6
	flows := genFlows(ports, rounds, per)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("K%d", shards), func(t *testing.T) {
			pol := &StallPolicy{P: stream.ByName("RoundRobin"), Period: 5, StallLen: 3}
			rt, err := stream.New(&fixedSource{flows: flows}, stream.Config{
				Switch: switchnet.UnitSwitch(ports), Policy: pol, Shards: shards,
				MaxPending: 64, VerifyEvery: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			sum, err := rt.Run()
			if err != nil {
				t.Fatal(err)
			}
			assertBalanced(t, sum)
			if sum.Completed != int64(len(flows)) || sum.Pending != 0 {
				t.Fatalf("stalled drain incomplete: %+v", sum)
			}
			if sum.WindowsVerified == 0 {
				t.Fatal("verifier never ran")
			}
		})
	}
}

// TestSourceHiccupKeepsInvariants runs a seeded hiccuping feed — bursts
// and quiet stretches — and requires a clean, verified, balanced drain.
func TestSourceHiccupKeepsInvariants(t *testing.T) {
	const ports, rounds, per = 6, 80, 5
	src := NewHiccupSource(&fixedSource{flows: genFlows(ports, rounds, per)}, 0xC0FFEE, 0.08, 2, 17)
	rt, err := stream.New(src, stream.Config{
		Switch: switchnet.UnitSwitch(ports), Policy: stream.ByName("OldestFirst"),
		Shards: 2, MaxPending: 64, VerifyEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertBalanced(t, sum)
	if sum.Completed != int64(rounds*per) || sum.Pending != 0 {
		t.Fatalf("hiccuped drain incomplete: %+v", sum)
	}
	if sum.WindowsVerified == 0 {
		t.Fatal("verifier never ran")
	}
	if src.Hiccups == 0 {
		t.Fatal("seeded hiccup schedule injected nothing — the test exercised the happy path")
	}
}

// TestClockJumpKeepsInvariants opens a ~million-round idle gap
// mid-stream; the runtime must cross it with its idle jump, keep the
// verification windows clean, and keep accounting balanced on both
// sides.
func TestClockJumpKeepsInvariants(t *testing.T) {
	const ports, rounds, per, jump = 6, 40, 5, 1 << 20
	src := NewJumpSource(&fixedSource{flows: genFlows(ports, rounds, per)}, rounds*per/2, jump)
	rt, err := stream.New(src, stream.Config{
		Switch: switchnet.UnitSwitch(ports), Policy: stream.ByName("RoundRobin"),
		Shards: 2, MaxPending: 64, VerifyEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertBalanced(t, sum)
	if sum.Completed != int64(rounds*per) || sum.Pending != 0 {
		t.Fatalf("jumped drain incomplete: %+v", sum)
	}
	if sum.Round <= jump {
		t.Fatalf("clock jump never happened: final round %d", sum.Round)
	}
	if sum.WindowsVerified == 0 {
		t.Fatal("verifier never ran")
	}
}

// TestSourceErrorPropagates pins that a feed dying mid-stream fails the
// run with the injected error instead of reporting a clean drain.
func TestSourceErrorPropagates(t *testing.T) {
	injected := errors.New("feed died")
	src := NewErrorSource(&fixedSource{flows: genFlows(4, 20, 4)}, 17, injected)
	rt, err := stream.New(src, stream.Config{
		Switch: switchnet.UnitSwitch(4), Policy: stream.ByName("StreamFIFO"), Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); !errors.Is(err, injected) {
		t.Fatalf("run returned %v, want the injected source error", err)
	}
}

// TestCorruptCheckpointRefusedEndToEnd writes a real checkpoint from a
// live capture, damages it with the harness corrupters, and requires
// the restore path to refuse each damaged file with the right typed
// error — before any runtime is constructed or any flow admitted.
func TestCorruptCheckpointRefusedEndToEnd(t *testing.T) {
	const ports, rounds, per = 4, 30, 5
	dir := t.TempDir()
	path := filepath.Join(dir, "ck")
	captured := false
	var rt *stream.Runtime
	cfg := stream.Config{
		Switch: switchnet.UnitSwitch(ports), Policy: stream.ByName("StreamFIFO"), Shards: 1,
		MaxPending:            16,
		CheckpointEveryRounds: 9,
	}
	cfg.OnCheckpoint = func(st *stream.CheckpointState) {
		if !captured {
			captured = true
			if err := chkpt.Save(path, chkpt.FromState(st, cfg)); err != nil {
				t.Errorf("save: %v", err)
			}
		}
		rt.Stop()
	}
	var err error
	rt, err = stream.New(&fixedSource{flows: genFlows(ports, rounds, per)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !captured {
		t.Fatal("no checkpoint captured")
	}
	if ck, err := chkpt.Load(path); err != nil || ck.Pending == 0 {
		t.Fatalf("pristine checkpoint should load with pending flows: %v, %+v", err, ck)
	}

	corrupt := func(name string, mut func(string) error, want error) {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "ck")
			ck, err := chkpt.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := chkpt.Save(p, ck); err != nil {
				t.Fatal(err)
			}
			if err := mut(p); err != nil {
				t.Fatal(err)
			}
			if _, err := chkpt.Load(p); !errors.Is(err, want) {
				t.Fatalf("corrupt load returned %v, want %v", err, want)
			}
		})
	}
	corrupt("truncated", func(p string) error { return TruncateFile(p, 25) }, chkpt.ErrTruncated)
	corrupt("flipped CRC byte", func(p string) error { return FlipByte(p, -1) }, chkpt.ErrCorrupt)
	corrupt("flipped payload byte", func(p string) error { return FlipByte(p, 30) }, chkpt.ErrCorrupt)
	corrupt("emptied", func(p string) error { return TruncateFile(p, 0) }, chkpt.ErrEmpty)
}
