package stream_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
	"flowsched/internal/workload"
)

// FuzzPolicyPicks throws random arrival patterns at a random native
// policy at a random shard count and checks the policy-independent
// scheduling invariants the runtime must uphold: no flow is served
// before its release or twice, per-round per-port scheduled demand never
// exceeds InCaps/OutCaps, every served flow is one the source actually
// emitted (picks cannot exceed the VOQ contents), the internal/verify
// oracle accepts every spot-check window, and the drain completes with
// every flow scheduled exactly once — with or without admission
// backpressure.
func FuzzPolicyPicks(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint16(300), uint8(2), uint8(0))
	f.Add(int64(7), uint8(1), uint8(1), uint16(500), uint8(4), uint8(1))
	f.Add(int64(3), uint8(2), uint8(2), uint16(200), uint8(1), uint8(2))
	f.Add(int64(11), uint8(3), uint8(1), uint16(900), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, polSel, kSel uint8, nSel uint16, portSel, demSel uint8) {
		names := stream.Names()
		name := names[int(polSel)%len(names)]
		K := []int{1, 2, 4}[int(kSel)%3]
		ports := int(portSel)%7 + 2 // 2..8
		dmax := int(demSel)%3 + 1   // 1..3
		n := int(nSel)%1200 + 1
		rng := rand.New(rand.NewSource(seed))

		// Random arrival pattern: bursts with random gaps, random
		// endpoints, demands in [1, dmax] on a capacity-dmax switch.
		sw := switchnet.NewSwitch(ports, ports, dmax)
		flows := make([]switchnet.Flow, n)
		rel := 0
		for i := range flows {
			if rng.Intn(3) == 0 {
				rel += rng.Intn(4)
			}
			flows[i] = switchnet.Flow{
				In:      rng.Intn(ports),
				Out:     rng.Intn(ports),
				Demand:  1 + rng.Intn(dmax),
				Release: rel,
			}
		}
		inst := &switchnet.Instance{Switch: sw, Flows: flows}
		maxPending := 0
		if rng.Intn(2) == 0 {
			maxPending = 8 + rng.Intn(64) // exercise backpressure
		}
		fuzzPolicyPicks(t, inst, name, K, maxPending)
	})
}

// FuzzResume feeds an arbitrary CheckpointState into New with an
// InstanceSource tail on a 4x4 unit switch: any round, pending count and
// counters, and up to eight restored flows that may be out of range,
// unsorted, released after the round, or more than one past the pending
// set; for the policies that carry rotation pointers, one of them is
// fuzzed too. New either refuses it or returns a runtime whose Snapshot
// already holds the checkpoint's pending set, and whose run then drains
// verifier-clean with every flow it was handed accounted for. A pointer
// outside [-1, 4) is always refused. Nothing panics.
func FuzzResume(f *testing.F) {
	valid := []byte{0, 1, 0, 4, 1, 2, 0, 3, 2, 3, 0, 2} // releases round-2, round-1, round
	f.Add(int32(10), int8(3), int16(7), int16(0), int16(0), int16(30), int8(0), uint8(0), uint8(0), uint8(5), uint8(0), int16(-1), valid)
	f.Add(int32(10), int8(3), int16(7), int16(2), int16(1), int16(30), int8(0), uint8(1), uint8(1), uint8(9), uint8(0), int16(-1), valid)
	f.Add(int32(10), int8(2), int16(7), int16(0), int16(0), int16(30), int8(0), uint8(2), uint8(0), uint8(3), uint8(0), int16(-1), valid) // lookahead
	f.Add(int32(10), int8(1), int16(7), int16(0), int16(0), int16(30), int8(0), uint8(3), uint8(1), uint8(3), uint8(0), int16(-1), valid) // two past pending
	f.Add(int32(10), int8(3), int16(7), int16(0), int16(0), int16(30), int8(1), uint8(0), uint8(0), uint8(3), uint8(0), int16(-1), valid) // unbalanced
	f.Add(int32(10), int8(3), int16(-1), int16(0), int16(0), int16(30), int8(0), uint8(0), uint8(0), uint8(3), uint8(0), int16(-1), valid)
	f.Add(int32(-1), int8(0), int16(0), int16(0), int16(0), int16(0), int8(0), uint8(0), uint8(0), uint8(3), uint8(0), int16(-1), []byte{})
	f.Add(int32(10), int8(2), int16(0), int16(0), int16(0), int16(0), int8(0), uint8(0), uint8(0), uint8(3), uint8(0), int16(-1), []byte{0, 1, 0, 0, 1, 2, 0, 2}) // after round
	f.Add(int32(10), int8(2), int16(0), int16(0), int16(0), int16(0), int8(0), uint8(0), uint8(0), uint8(3), uint8(0), int16(-1), []byte{0, 1, 0, 2, 1, 2, 0, 9}) // unsorted
	f.Add(int32(10), int8(2), int16(0), int16(0), int16(0), int16(0), int8(0), uint8(0), uint8(0), uint8(3), uint8(0), int16(-1), []byte{4, 1, 0, 2, 1, 2, 3, 2}) // out of range
	f.Add(int32(1), int8(9), int16(0), int16(0), int16(0), int16(0), int8(0), uint8(0), uint8(0), uint8(0), uint8(0), int16(-1), bytes.Repeat([]byte{1, 1, 0, 3}, 9))
	f.Add(int32(10), int8(3), int16(7), int16(0), int16(0), int16(30), int8(0), uint8(0), uint8(1), uint8(5), uint8(2), int16(3), valid)    // pointer at the last port
	f.Add(int32(10), int8(3), int16(7), int16(0), int16(0), int16(30), int8(0), uint8(0), uint8(0), uint8(5), uint8(1), int16(-500), valid) // pointer below -1
	f.Add(int32(10), int8(3), int16(7), int16(0), int16(0), int16(30), int8(0), uint8(2), uint8(1), uint8(5), uint8(5), int16(4), valid)    // accept past the ports
	f.Fuzz(func(t *testing.T, round int32, pending int8, completed, dropped, expired, hist int16, skew int8,
		polSel, kSel, tailN, scratchAt uint8, scratch int16, data []byte) {
		sw := switchnet.UnitSwitch(4)
		names := stream.Names()
		name := names[int(polSel)%len(names)]
		shards := 1 + int(kSel%2)
		// Every shard carries pointers for the whole switch: RoundRobin's
		// four per input, WeightedISLIP's four grants then four accepts.
		// All are -1 but the fuzzed one.
		var ptrs [][]int64
		if n := map[string]int{"RoundRobin": 4, "WeightedISLIP": 8}[name]; n > 0 {
			ptrs = make([][]int64, shards)
			for s := range ptrs {
				ptrs[s] = slices.Repeat([]int64{-1}, n)
			}
			ptrs[0][int(scratchAt)%n] = int64(scratch)
		}
		var flows []switchnet.Flow
		for i := 0; i+4 <= len(data) && len(flows) < 8; i += 4 {
			flows = append(flows, switchnet.Flow{
				In:      int(data[i] % 5),
				Out:     int(data[i+1] % 5),
				Demand:  [4]int{1, 1, 0, 2}[data[i+2]%4],
				Release: int(round) - int(data[i+3]%16) + 2,
			})
		}
		st := &stream.CheckpointState{
			Round:   int(round),
			Pending: int(pending),
			Flows:   flows,
			Summary: stream.Summary{
				Admitted:      int64(completed) + int64(pending) + int64(dropped) + int64(expired) + int64(skew),
				Completed:     int64(completed),
				Dropped:       int64(dropped),
				Expired:       int64(expired),
				Backpressured: int64(hist / 4),
				TotalResponse: int64(hist),
				SlowResponses: int64(hist / 8),
				Rounds:        int64(hist),
				MaxResponse:   int(hist % 64),
				PeakPending:   int(hist % 16),
			},
			Policy:  name,
			Scratch: ptrs,
		}
		tail := &switchnet.Instance{Switch: sw}
		for i := range int(tailN % 16) {
			tail.Flows = append(tail.Flows, switchnet.Flow{In: i % 4, Out: (i*3 + 1) % 4, Demand: 1, Release: int(round) + i/3})
		}
		rt, err := stream.New(workload.NewInstanceSource(tail), stream.Config{
			Switch:      sw,
			Policy:      stream.ByName(name),
			Shards:      shards,
			MaxPending:  8,
			VerifyEvery: 4,
			Resume:      st,
		})
		if err != nil {
			return
		}
		if ptrs != nil && (scratch < -1 || scratch >= 4) {
			t.Fatalf("New accepted %s rotation pointer %d on a 4x4 switch", name, scratch)
		}
		if s := rt.Snapshot(); s.Pending != st.Pending || s.Admitted != st.Summary.Admitted || s.Round != st.Round {
			t.Fatalf("snapshot right after New: %+v, want the checkpoint's round %d, pending %d, admitted %d",
				s, st.Round, st.Pending, st.Summary.Admitted)
		}
		sum, err := rt.Run()
		if err != nil {
			t.Fatalf("New accepted %+v, but the run failed: %v", st, err)
		}
		if sum.Pending != 0 || sum.Admitted != sum.Completed+sum.Dropped+sum.Expired {
			t.Fatalf("drained summary unbalanced: %+v", sum)
		}
		if want := st.SourceFlows() + int64(len(tail.Flows)); sum.Admitted != want {
			t.Fatalf("admitted %d, want %d restored plus %d tail flows", sum.Admitted, st.SourceFlows(), len(tail.Flows))
		}
	})
}

// fuzzPolicyPicks drains inst under the named policy at K shards and
// checks FuzzPolicyPicks' invariants.
func fuzzPolicyPicks(t *testing.T, inst *switchnet.Instance, name string, K, maxPending int) {
	sw, flows := inst.Switch, inst.Flows
	n, ports := len(flows), sw.NumIn()
	src := workload.NewInstanceSource(inst)
	pol := stream.ByName(name)
	cfg := stream.Config{
		Switch:      sw,
		Policy:      pol,
		Shards:      K,
		VerifyEvery: 3,
		MaxPending:  maxPending,
	}

	served := make([]bool, n)
	sched := switchnet.NewSchedule(n)
	loadIn := make([]int, ports)
	loadOut := make([]int, ports)
	curRound := -1
	cfg.OnSchedule = func(seq int64, fl switchnet.Flow, round int) {
		if seq < 0 || seq >= int64(n) {
			t.Fatalf("%s K=%d: served unknown seq %d", name, K, seq)
		}
		fi := src.Order()[seq]
		if served[fi] {
			t.Fatalf("%s K=%d: flow %d served twice", name, K, fi)
		}
		served[fi] = true
		if fl != flows[fi] {
			t.Fatalf("%s K=%d: served flow %+v != source flow %+v (pick outside VOQ contents)",
				name, K, fl, flows[fi])
		}
		if round < fl.Release {
			t.Fatalf("%s K=%d: flow %d served in round %d before release %d", name, K, fi, round, fl.Release)
		}
		if round < curRound {
			t.Fatalf("%s K=%d: serve rounds went backwards (%d after %d)", name, K, round, curRound)
		}
		if round > curRound {
			for p := range loadIn {
				loadIn[p], loadOut[p] = 0, 0
			}
			curRound = round
		}
		loadIn[fl.In] += fl.Demand
		loadOut[fl.Out] += fl.Demand
		if loadIn[fl.In] > sw.InCaps[fl.In] || loadOut[fl.Out] > sw.OutCaps[fl.Out] {
			t.Fatalf("%s K=%d: round %d overloads a port of flow %+v (in %d/%d, out %d/%d)",
				name, K, round, fl, loadIn[fl.In], sw.InCaps[fl.In], loadOut[fl.Out], sw.OutCaps[fl.Out])
		}
		sched.Round[fi] = round
	}

	rt, err := stream.New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Run()
	if err != nil {
		t.Fatalf("%s K=%d: %v", name, K, err)
	}
	if sum.Completed != int64(n) {
		t.Fatalf("%s K=%d: completed %d of %d", name, K, sum.Completed, n)
	}
	for fi, ok := range served {
		if !ok {
			t.Fatalf("%s K=%d: flow %d never served", name, K, fi)
		}
	}
	if sum.WindowsVerified == 0 {
		t.Fatalf("%s K=%d: no verification windows ran", name, K)
	}
	if _, err := verify.CheckSchedule(inst, sched, sw.Caps()); err != nil {
		t.Fatalf("%s K=%d: schedule rejected by oracle: %v", name, K, err)
	}
}
