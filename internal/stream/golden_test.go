package stream_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// nativeGolden pins every native policy's schedule at K in {1, 2, 4}
// under lossless and deadline admission: FNV-1a over the (seq, round)
// pairs OnSchedule reports, in the order it reports them. The hashes were
// recorded while the shard phases still ran on a worker pool with
// deferred retirement, so they hold the runtime to the schedules (and the
// within-round callback order) of that design at every K.
var nativeGolden = map[string]uint64{
	"RoundRobin/K1/lossless":    0x1cf5e41cbd8ce398,
	"RoundRobin/K1/deadline":    0xab541e53e89abd8f,
	"RoundRobin/K2/lossless":    0x5170a5520dca0447,
	"RoundRobin/K2/deadline":    0x320e5b3a715ca3b1,
	"RoundRobin/K4/lossless":    0xdc4cce8d4a2ac5ed,
	"RoundRobin/K4/deadline":    0x35fc7f88fa19bdae,
	"OldestFirst/K1/lossless":   0x488bbd9842b505ac,
	"OldestFirst/K1/deadline":   0x772551226ee7a06d,
	"OldestFirst/K2/lossless":   0xe4b84ccda9580a90,
	"OldestFirst/K2/deadline":   0xe93d3125e9b0ce05,
	"OldestFirst/K4/lossless":   0x388f85e7964912d7,
	"OldestFirst/K4/deadline":   0xa3299d8bec3e2a99,
	"WeightedISLIP/K1/lossless": 0x8adc74322ec46beb,
	"WeightedISLIP/K1/deadline": 0x04a03f91e88f0af5,
	"WeightedISLIP/K2/lossless": 0x8f9a817483da4b19,
	"WeightedISLIP/K2/deadline": 0x3acb405dbf8d571b,
	"WeightedISLIP/K4/lossless": 0xa5589ae0adc46206,
	"WeightedISLIP/K4/deadline": 0xf124bd427faec036,
	"StreamFIFO/K1/lossless":    0x339851d434ab8d09,
	"StreamFIFO/K1/deadline":    0xefdc2f42eeba6c8e,
	"StreamFIFO/K2/lossless":    0x5d387cb8f8d7b1d9,
	"StreamFIFO/K2/deadline":    0x79a533f2433f7b1d,
	"StreamFIFO/K4/lossless":    0x19a7ca9c3609ec2b,
	"StreamFIFO/K4/deadline":    0xae0fd4c1fbc5ce64,
}

// goldenFlows is the pinned instance: a hot-output ChurnSource draw on a
// 7x7 switch, its demands mixed over 1..2 so capacity-2 ports pack
// multi-unit flows. Output 0 is oversubscribed every round, so the
// backlog, the admission limit and the deadline all bind.
func goldenFlows() []switchnet.Flow {
	src := workload.NewChurnSource(workload.ChurnConfig{Ins: 7, Outs: 7, PerRound: 9, HotOuts: 1, MaxFlows: 3000},
		rand.New(rand.NewSource(31)))
	var flows []switchnet.Flow
	for f, ok := src.Next(); ok; f, ok = src.Next() {
		f.Demand = 1 + len(flows)%7%2
		flows = append(flows, f)
	}
	return flows
}

// TestNativeScheduleGolden replays goldenFlows through every native
// policy, shard count and admission mode with verification on, and holds
// each schedule to its recorded hash.
func TestNativeScheduleGolden(t *testing.T) {
	flows := goldenFlows()
	for _, name := range stream.Names() {
		for _, K := range []int{1, 2, 4} {
			for _, mode := range []stream.AdmitMode{stream.AdmitLossless, stream.AdmitDeadline} {
				row := fmt.Sprintf("%s/K%d/%s", name, K, mode)
				t.Run(row, func(t *testing.T) {
					h := fnv.New64a()
					var buf [16]byte
					cfg := stream.Config{
						Switch: switchnet.NewSwitch(7, 7, 2), Policy: stream.ByName(name), Shards: K,
						MaxPending: 64, Admit: mode, VerifyEvery: 16,
						OnSchedule: func(seq int64, _ switchnet.Flow, round int) {
							binary.LittleEndian.PutUint64(buf[:8], uint64(seq))
							binary.LittleEndian.PutUint64(buf[8:], uint64(round))
							h.Write(buf[:])
						},
					}
					if mode == stream.AdmitDeadline {
						cfg.Deadline = 8
					}
					rt, err := stream.New(&sliceSource{flows: flows}, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sum, err := rt.Run()
					if err != nil {
						t.Fatal(err)
					}
					if sum.Admitted != int64(len(flows)) || sum.Pending != 0 || sum.WindowsVerified == 0 {
						t.Fatalf("drain incomplete or unverified: %+v", sum)
					}
					if mode == stream.AdmitDeadline && sum.Expired == 0 {
						t.Fatalf("deadline row expired nothing: %+v", sum)
					}
					if mode == stream.AdmitLossless && sum.Backpressured == 0 {
						t.Fatalf("lossless row never hit the admission limit: %+v", sum)
					}
					if got, want := h.Sum64(), nativeGolden[row]; got != want {
						t.Errorf("%q: %#016x, golden %#016x", row, got, want)
					}
				})
			}
		}
	}
}
