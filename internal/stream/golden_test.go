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
// pairs OnSchedule reports, in the order it reports them. The K1 rows pin
// the unsharded schedules, which no change to sharding may move; the K2
// and K4 rows pin the shards' turns — once each per round, oldest pending
// release first, each against the output capacity the earlier turns
// left — and the within-round callback order.
var nativeGolden = map[string]uint64{
	"RoundRobin/K1/lossless":    0x1cf5e41cbd8ce398,
	"RoundRobin/K1/deadline":    0xab541e53e89abd8f,
	"RoundRobin/K2/lossless":    0x016ecd415b9746ec,
	"RoundRobin/K2/deadline":    0x2cabc274ed379fb0,
	"RoundRobin/K4/lossless":    0xc898a3da42049fd6,
	"RoundRobin/K4/deadline":    0x0afb13898fd381b3,
	"OldestFirst/K1/lossless":   0x488bbd9842b505ac,
	"OldestFirst/K1/deadline":   0x772551226ee7a06d,
	"OldestFirst/K2/lossless":   0x1648f14af8d98816,
	"OldestFirst/K2/deadline":   0x2babcadab28f7311,
	"OldestFirst/K4/lossless":   0x36e752b82d9c139c,
	"OldestFirst/K4/deadline":   0xc06f139b14272e8b,
	"WeightedISLIP/K1/lossless": 0x8adc74322ec46beb,
	"WeightedISLIP/K1/deadline": 0x04a03f91e88f0af5,
	"WeightedISLIP/K2/lossless": 0x4fc0a78cb7cd2ad9,
	"WeightedISLIP/K2/deadline": 0x6204c26332666091,
	"WeightedISLIP/K4/lossless": 0xfe3b05b985ed24b9,
	"WeightedISLIP/K4/deadline": 0x982d16221d41eecb,
	"StreamFIFO/K1/lossless":    0x339851d434ab8d09,
	"StreamFIFO/K1/deadline":    0xefdc2f42eeba6c8e,
	"StreamFIFO/K2/lossless":    0xe11b7cf687484738,
	"StreamFIFO/K2/deadline":    0xea6ef1f9f1e6f396,
	"StreamFIFO/K4/lossless":    0xe32b5d9ddadcf328,
	"StreamFIFO/K4/deadline":    0xadb8672a7c869b64,
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
