package workload_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"flowsched/internal/faultinject"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// TestSourceSequencesGolden pins the exact flow sequence each reader-built
// source yields at fixed seeds, read two ways — by Next alone and by a
// fixed, runtime-shaped schedule of PullBatch and Next calls — against
// FNV-1a hashes recorded before those sources shared one sequence reader
// (workload.Seq). TestSourceConformance only holds the two reads to each
// other within one build; this test fails if any sequence itself changes.
func TestSourceSequencesGolden(t *testing.T) {
	const n = 4000
	inst := workload.PoissonConfig{M: 3, T: 400, Ports: 6, Cap: 2, MaxDemand: 2}.Generate(rand.New(rand.NewSource(21)))
	var trace bytes.Buffer
	if err := workload.WriteTrace(&trace, inst); err != nil {
		t.Fatal(err)
	}
	arrival := func(cfg workload.ArrivalConfig, seed int64) *workload.ArrivalSource {
		return workload.NewArrivalSource(cfg, rand.New(rand.NewSource(seed)))
	}
	churn := func() *workload.ChurnSource {
		return workload.NewChurnSource(workload.ChurnConfig{Ins: 3, Outs: 5, PerRound: 3, HotOuts: 1}, rand.New(rand.NewSource(17)))
	}
	cases := []struct {
		name string
		want uint64
		mk   func() stream.Source
	}{
		{"Arrival/pareto", 0x5b8632a9fd1a48ff, func() stream.Source {
			return arrival(workload.ArrivalConfig{Ports: 8, Cap: 4, M: 3, Alpha: 1.2, MaxDemand: 4}, 1)
		}},
		{"Arrival/lowrate", 0x5ed9ea49d5765d97, func() stream.Source {
			return arrival(workload.ArrivalConfig{Ports: 5, Cap: 3, M: 0.05, MaxDemand: 3}, 2)
		}},
		{"Churn/hot", 0x36bc7458507f9b74, func() stream.Source { return churn() }},
		{"Trace", 0x8cf8a17a5212df08, func() stream.Source {
			return workload.NewTraceSource(bytes.NewReader(trace.Bytes()), inst.Switch)
		}},
		{"Hiccup", 0x78c50df2051120d0, func() stream.Source {
			return faultinject.NewHiccupSource(arrival(workload.ArrivalConfig{Ports: 6, M: 2}, 3), 0xC0FFEE, 0.05, 2, 9)
		}},
		{"Jump", 0x6873ff62f353e2a8, func() stream.Source { return faultinject.NewJumpSource(churn(), 1500, 1000) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, read := range []struct {
				how  string
				read func(stream.Source, int) []switchnet.Flow
			}{{"Next", readByNext}, {"PullBatch", readScheduled}} {
				flows := read.read(tc.mk(), n)
				if got := hashFlows(flows); got != tc.want {
					t.Errorf("read by %s: %d flows hash to %#x, want %#x", read.how, len(flows), got, tc.want)
				}
			}
		})
	}
}

// readByNext returns the first n flows of src, read by Next alone.
func readByNext(src stream.Source, n int) []switchnet.Flow {
	var out []switchnet.Flow
	for len(out) < n {
		f, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, f)
	}
	return out
}

// readScheduled returns the first n flows of src, read the way the
// runtime reads: batches of cycling sizes at the current round, a short
// batch answered by a Next that jumps the round to the flow it returns,
// with bare Next calls and idle rounds mixed in on a fixed cadence.
func readScheduled(src stream.Source, n int) []switchnet.Flow {
	sizes := [...]int{1, 4, 16, 3, 64}
	var out, buf []switchnet.Flow
	round := 0
	next := func() bool {
		f, ok := src.Next()
		if ok {
			out = append(out, f)
			round = max(round, f.Release)
		}
		return ok
	}
loop:
	for step := 0; len(out) < n; step++ {
		switch {
		case step%7 == 6:
			if !next() {
				break loop
			}
		case step%11 == 10:
			round++
		default:
			k := sizes[step%len(sizes)]
			buf = src.PullBatch(buf[:0], round, k)
			out = append(out, buf...)
			if len(buf) < k && !next() {
				break loop
			}
		}
	}
	return out[:min(len(out), n)]
}

// hashFlows is FNV-1a over each flow's release, input, output and demand.
func hashFlows(flows []switchnet.Flow) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range flows {
		for _, v := range [...]int{f.Release, f.In, f.Out, f.Demand} {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
