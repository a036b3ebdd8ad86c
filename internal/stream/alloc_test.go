package stream

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"flowsched/internal/obs"
	"flowsched/internal/switchnet"
)

// patternSource emits a fixed, deterministic arrival pattern forever: per
// unit flows per round with endpoints cycling over the switch. Determinism
// matters for the allocation assertions — after warm-up every scratch
// buffer and arena column has reached its high-water mark, so a measured
// round can only allocate if the hot path itself does.
type patternSource struct {
	ports, per int
	round, i   int
}

func (s *patternSource) gen() switchnet.Flow {
	k := s.i*7 + s.round*3
	f := switchnet.Flow{
		In:      k % s.ports,
		Out:     (k / s.ports) % s.ports,
		Demand:  1,
		Release: s.round,
	}
	s.i++
	if s.i%s.per == 0 {
		s.round++
	}
	return f
}

func (s *patternSource) Next() (switchnet.Flow, bool) { return s.gen(), true }

func (s *patternSource) PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow {
	for n := 0; n < max && s.round <= round; n++ {
		dst = append(dst, s.gen())
	}
	return dst
}

func (s *patternSource) Err() error { return nil }

// testSteadyStateZeroAlloc pins the tentpole property: once the pending
// set and every internal buffer have warmed to their high-water marks, a
// scheduling round performs zero heap allocations — arena slots recycle
// through their free list (the VOQs are links inside them), the admission
// batch, takes,
// and policy scratch buffers (RoundRobin's pointers, OldestFirst's lists,
// WeightedISLIP's request/grant arrays) length-reset, and the metric path
// (atomic counters plus the preallocated epoch window) never touches the
// allocator. It returns the warmed runtime, still steppable, for gates
// that measure further.
func testSteadyStateZeroAlloc(t *testing.T, shards int, pol Policy, admit AdmitMode, deadline int, rec *obs.FlightRecorder, mut ...func(*Config)) *Runtime {
	t.Helper()
	cfg := Config{
		Switch:     switchnet.UnitSwitch(8),
		Policy:     pol,
		Shards:     shards,
		MaxPending: 512,
		Admit:      admit,
		Deadline:   deadline,
		Recorder:   rec,
	}
	for _, m := range mut {
		m(&cfg)
	}
	ports := cfg.Switch.NumIn()
	src := &patternSource{ports: ports, per: ports * 3 / 2}
	rt, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Overloaded pattern (3 arrivals for every 2 a unit switch can serve
	// per round): the pending set pins at MaxPending well inside the
	// warm-up.
	for i := 0; i < 4096; i++ {
		done, err := rt.step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatal("unbounded source drained during warm-up")
		}
	}
	if admit != AdmitDeadline && rt.peak != cfg.MaxPending {
		t.Fatalf("pending set never reached the admission limit: peak %d", rt.peak)
	}
	switch admit {
	case AdmitDrop:
		if rt.mDropped.Load() == 0 {
			t.Fatal("overloaded drop-mode warm-up shed nothing")
		}
	case AdmitDeadline:
		if rt.mExpired.Load() == 0 {
			t.Fatal("overloaded deadline-mode warm-up expired nothing")
		}
	}
	allocs := testing.AllocsPerRun(512, func() {
		if _, err := rt.step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%s K=%d steady-state round performed %v allocs, want 0", pol.Name(), shards, allocs)
	}
	return rt
}

// TestSteadyStateZeroAlloc covers every native policy at K in {1, 2}.
// StreamFIFO's round costs O(pending), but it allocates nothing either:
// its Each closure does not escape. OldestFirst gets a second row at
// depth — 40x40 with 4k flows resident, every VOQ active — which checks
// that its lists are what made the rounds cheap: built once, then only
// synced, and the merges examining fewer entries than half the active
// VOQs' heads.
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, name := range []string{"RoundRobin", "OldestFirst", "WeightedISLIP", "StreamFIFO"} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/K%d", name, shards), func(t *testing.T) {
				testSteadyStateZeroAlloc(t, shards, ByName(name), AdmitLossless, 0, nil)
			})
		}
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("OldestFirst/deep/K%d", shards), func(t *testing.T) {
			rt := testSteadyStateZeroAlloc(t, shards, ByName("OldestFirst"), AdmitLossless, 0, nil, func(cfg *Config) {
				cfg.Switch = switchnet.UnitSwitch(40)
				cfg.MaxPending = 4096
			})
			examined, active := -visited(rt), int64(0)
			const rounds = 64
			for i := 0; i < rounds; i++ {
				if _, err := rt.step(); err != nil {
					t.Fatal(err)
				}
				for vi := range rt.vqs {
					if rt.vqs[vi].head != noID {
						active++
					}
				}
			}
			examined += visited(rt)
			if 2*examined >= active {
				t.Fatalf("the merges examined %d entries over %d rounds with %d active VOQs a round: want under half",
					examined, rounds, active/rounds)
			}
			for _, p := range rt.instances() {
				if b := p.(*OldestFirst).builds; b != 1 {
					t.Fatalf("an instance built its lists %d times, want once", b)
				}
			}
		})
	}
}

// TestPickScratchReservedBounds pins the bounds the pick path's scratch
// lists are reserved at. A port is touched at most once a round, an input
// is active in one scope, a round picks at most one flow per unit input,
// and a WeightedISLIP iteration keeps one request per output and one
// accept per input, so New and Reset reserve exactly those counts and the
// lists fill by reslicing. On an 8x8 unit switch with every VOQ holding a
// flow, the diagonal released a round before the rest, every native
// policy matches every input to an output in one round (in one iteration
// for WeightedISLIP), so each list reaches its bound: the runtime's
// touched-port lists NumIn and NumOut, takes NumIn, each scope's
// active-input list the inputs it owns, and each WeightedISLIP instance's
// request list the outputs still free at its turn and its accept list
// the scope's inputs. No list's capacity may move, from New through the
// rest of the drain.
func TestPickScratchReservedBounds(t *testing.T) {
	const ports = 8
	for _, name := range Names() {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/K%d", name, shards), func(t *testing.T) {
				rt, err := New(emptySource{}, Config{
					Switch: switchnet.UnitSwitch(ports),
					Policy: ByName(name),
					Shards: shards,
				})
				if err != nil {
					t.Fatal(err)
				}
				capIn, capOut, capTakes := cap(rt.touchIn), cap(rt.touchOut), cap(rt.takes)
				// A unit input carries one flow a round.
				if capTakes != ports {
					t.Errorf("takes capacity %d after New, want its round bound %d", capTakes, ports)
				}
				capActive := make([]int, shards)
				for s, act := range rt.activeIn {
					capActive[s] = cap(act)
					if owned := (ports - s + shards - 1) / shards; capActive[s] != owned {
						t.Errorf("scope %d: active-input capacity %d after New, want the %d inputs it owns", s, capActive[s], owned)
					}
				}
				// The iSLIP lists are length-reset after every iteration,
				// so their high-water mark is read off sentinel-filled
				// backing arrays.
				islip := make([]*WeightedISLIP, shards)
				capReq, capAcc := make([]int, shards), make([]int, shards)
				for s, pol := range rt.instances() {
					if p, ok := pol.(*WeightedISLIP); ok {
						islip[s] = p
						capReq[s], capAcc[s] = cap(p.reqOuts), cap(p.accIns)
						fill(p.reqOuts[:capReq[s]], noID)
						fill(p.accIns[:capAcc[s]], noID)
					}
				}

				seq := int64(0)
				for i := 0; i < ports; i++ {
					rt.admitFlow(&switchnet.Flow{In: i, Out: i, Demand: 1}, seq)
					seq++
				}
				for i := 0; i < ports; i++ {
					for j := 0; j < ports; j++ {
						if i != j {
							rt.admitFlow(&switchnet.Flow{In: i, Out: j, Demand: 1, Release: 1}, seq)
							seq++
						}
					}
				}
				rt.round = 1
				for s, act := range rt.activeIn {
					if owned := (ports - s + shards - 1) / shards; len(act) != owned {
						t.Errorf("scope %d: %d active inputs, want the %d it owns", s, len(act), owned)
					}
				}
				rt.pol.Pick(&rt.view)
				if rt.refused || rt.err != nil {
					t.Fatalf("pick failed: refused %v (id %d), %v", rt.refused, rt.refusedID, rt.err)
				}
				// Each turn found free the outputs the turns before it left:
				// one per flow they picked.
				order := []int{0}
				if tp, ok := rt.pol.(*turns); ok {
					order = tp.order
				}
				freeOut := ports
				for _, s := range order {
					if p := islip[s]; p != nil {
						if n := highWater(p.reqOuts[:capReq[s]]); n != freeOut {
							t.Errorf("scope %d: request list reached %d, want the %d free outputs", s, n, freeOut)
						}
						if n, owned := highWater(p.accIns[:capAcc[s]]), len(rt.activeIn[s]); n != owned {
							t.Errorf("scope %d: accept list reached %d, want its %d inputs", s, n, owned)
						}
					}
					for _, id := range rt.takes {
						if rt.ar.rec[id].inPort()%shards == s {
							freeOut--
						}
					}
				}
				if len(rt.touchIn) != ports || len(rt.touchOut) != ports {
					t.Errorf("touched %d inputs and %d outputs, want %d and %d", len(rt.touchIn), len(rt.touchOut), ports, ports)
				}

				if cap(rt.touchIn) != capIn || cap(rt.touchOut) != capOut {
					t.Errorf("touched-port capacities %d/%d, reserved %d/%d", cap(rt.touchIn), cap(rt.touchOut), capIn, capOut)
				}
				if len(rt.takes) != capTakes {
					t.Errorf("%d picks, want the round bound %d", len(rt.takes), capTakes)
				}
				for s, act := range rt.activeIn {
					if cap(act) != capActive[s] {
						t.Errorf("scope %d: active-input capacity %d, reserved %d", s, cap(act), capActive[s])
					}
					if p := islip[s]; p != nil && (cap(p.reqOuts) != capReq[s] || cap(p.accIns) != capAcc[s]) {
						t.Errorf("scope %d: request/accept capacities %d/%d, reserved %d/%d", s, cap(p.reqOuts), cap(p.accIns), capReq[s], capAcc[s])
					}
				}

				// Close the hand-run round, then drain the rest through step.
				rt.retire()
				rt.round++
				for done := false; !done; {
					if done, err = rt.step(); err != nil {
						t.Fatal(err)
					}
					if cap(rt.takes) != capTakes {
						t.Fatalf("round %d: takes capacity %d, reserved %d", rt.round, cap(rt.takes), capTakes)
					}
				}
				if got := rt.mCompleted.Load(); got != seq {
					t.Fatalf("drain completed %d of %d flows", got, seq)
				}
			})
		}
	}
}

// fill sets every element of s to x.
func fill(s []int32, x int32) {
	for i := range s {
		s[i] = x
	}
}

// highWater returns the length of s's prefix that differs from noID: how
// far a list reset to length 0 over a noID-filled backing array reached.
func highWater(s []int32) int {
	n := 0
	for n < len(s) && s[n] != noID {
		n++
	}
	return n
}

// TestOldestFirstRampAllocBounded pins that the pick allocates its lists
// once. A fresh K=2 runtime (so the shards' policy instances start
// cold, as they do on every run) fills a 64x64 switch to 8k resident
// over some 250 rounds, its active VOQ count a new high on each of them.
// Each instance builds its lists once, at its first pick, and they never
// grow after: the ramp stays within 4 MB for everything the round loop
// allocates on the way up, arena columns included.
func TestOldestFirstRampAllocBounded(t *testing.T) {
	const ports, backlog = 64, 8192
	rt, err := New(&patternSource{ports: ports, per: ports * 3 / 2}, Config{
		Switch: switchnet.UnitSwitch(ports), Policy: ByName("OldestFirst"), Shards: 2, MaxPending: backlog,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for rt.peak < backlog {
		if _, err := rt.step(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("ramp to %d resident allocated %d bytes in %d rounds, want <= %d", backlog, got, rt.round, 4<<20)
	}
	for _, p := range rt.instances() {
		if b := p.(*OldestFirst).builds; b != 1 {
			t.Fatalf("an instance built its lists %d times over the ramp, want once", b)
		}
	}
}

// TestSteadyStateZeroAllocAdmissionModes extends the allocation gate to
// the shedding admission modes: a steady-state round that drops the
// released backlog (AdmitDrop) or expires aged pending flows
// (AdmitDeadline) must stay off the allocator exactly like the lossless
// path.
func TestSteadyStateZeroAllocAdmissionModes(t *testing.T) {
	for _, tc := range []struct {
		admit    AdmitMode
		deadline int
	}{
		{AdmitDrop, 0},
		{AdmitDeadline, 8},
	} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/K%d", tc.admit, shards), func(t *testing.T) {
				testSteadyStateZeroAlloc(t, shards, ByName("RoundRobin"), tc.admit, tc.deadline, nil)
			})
		}
	}
}

// TestSteadyStateZeroAllocVerify extends the allocation gate to windowed
// verification: with VerifyEvery = 64 every round's picks are checked in
// place and a window is reported every 64 rounds, and none of it — the
// oracle's scratch, its Checker — may touch the allocator once warmed.
// testing.AllocsPerRun reports an integer average, which would round a
// few allocations per window down to zero, so the gate proper is the
// process-wide malloc count over 512 further rounds, taken on a single P
// after one more window has run. Every window is reported at its own
// flush, so the 512 rounds verify exactly eight.
func TestSteadyStateZeroAllocVerify(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("K%d", shards), func(t *testing.T) {
			rt := testSteadyStateZeroAlloc(t, shards, ByName("RoundRobin"), AdmitLossless, 0, nil, func(cfg *Config) {
				cfg.VerifyEvery = 64
			})
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			steps := func(n int) {
				for i := 0; i < n; i++ {
					if _, err := rt.step(); err != nil {
						t.Fatal(err)
					}
				}
			}
			steps(64)
			windows := rt.mWindows.Load()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			steps(512)
			runtime.ReadMemStats(&after)
			if got := rt.mWindows.Load() - windows; got != 512/64 {
				t.Fatalf("%d windows verified inside the measured rounds, want %d; the gate missed the verification path", got, 512/64)
			}
			if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
				t.Fatalf("K=%d: 512 steady-state rounds with verification on performed %d allocs, want 0", shards, allocs)
			}
		})
	}
}

// TestVerifyBufferHoldsOneRound pins the oracle's scratch to one round:
// New reserves it at the most flows a round can pick — 8 on an 8x8 unit
// switch — and each round's check reslices it in place, so across 512
// rounds of one window that never closes the scratch neither grows nor
// keeps a flow past the step that checked it.
func TestVerifyBufferHoldsOneRound(t *testing.T) {
	for _, shards := range []int{1, 2} {
		rt, err := New(&patternSource{ports: 8, per: 12}, Config{
			Switch:      switchnet.UnitSwitch(8),
			Policy:      ByName("RoundRobin"),
			Shards:      shards,
			MaxPending:  512,
			VerifyEvery: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			if cap(rt.vFlows) != 8 || cap(rt.vRounds) != 8 {
				t.Fatalf("K=%d %s: buffer capacity %d/%d, want 8/8", shards, when, cap(rt.vFlows), cap(rt.vRounds))
			}
			if len(rt.vFlows) != 0 || len(rt.vRounds) != 0 {
				t.Fatalf("K=%d %s: %d/%d flows left buffered, want 0", shards, when, len(rt.vFlows), len(rt.vRounds))
			}
		}
		check("after New")
		for i := 0; i < 512; i++ {
			if _, err := rt.step(); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("after step %d", i))
		}
		if rt.mCompleted.Load() < 8*256 {
			t.Fatalf("K=%d: only %d flows retired in 512 rounds; the pattern did not load the switch", shards, rt.mCompleted.Load())
		}
	}
}

// TestVerifyBufferFollowsMaxPending: where the capacities would allow
// more flows a round than can be pending, the reservations — the
// oracle's scratch and the shard's takes — stop at MaxPending, and a
// Reload that raises MaxPending widens them, while one that lowers it
// keeps the room the resident backlog may still need.
func TestVerifyBufferFollowsMaxPending(t *testing.T) {
	pol := ByName("RoundRobin")
	rt, err := New(emptySource{}, Config{
		Switch:      switchnet.NewSwitch(4, 4, 1<<20),
		Policy:      pol,
		MaxPending:  64,
		VerifyEvery: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ maxPending, want int }{{64, 64}, {256, 256}, {32, 256}} {
		if err := rt.Reload(context.Background(), ReloadConfig{Policy: pol, MaxPending: tc.maxPending}); err != nil {
			t.Fatal(err)
		}
		if cap(rt.vFlows) != tc.want || cap(rt.vRounds) != tc.want {
			t.Fatalf("MaxPending %d: buffer capacity %d/%d, want %d", tc.maxPending, cap(rt.vFlows), cap(rt.vRounds), tc.want)
		}
		if got := cap(rt.takes); got != tc.want {
			t.Fatalf("MaxPending %d: takes capacity %d, want %d", tc.maxPending, got, tc.want)
		}
	}
}

// TestSteadyStateZeroAllocCheckpoint extends the allocation gate to a
// checkpoint-enabled configuration: between captures, a steady-state
// round still performs zero heap allocations — the trigger is an integer
// compare. A capture allocates the state it hands over (the callback owns
// it; TestPeriodicCapturesCanBeKept), so the cadence puts every capture
// inside the warm-up and none in the measured rounds.
func TestSteadyStateZeroAllocCheckpoint(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("K%d", shards), func(t *testing.T) {
			captures, lastRound := 0, -1
			rt := testSteadyStateZeroAlloc(t, shards, ByName("RoundRobin"), AdmitLossless, 0, nil, func(cfg *Config) {
				cfg.CheckpointEveryRounds = 1000
				cfg.OnCheckpoint = func(st *CheckpointState) {
					captures++
					lastRound = st.Round
					if st.Pending != int(st.Summary.Admitted-st.Summary.Completed-st.Summary.Dropped-st.Summary.Expired) {
						t.Errorf("capture at round %d: pending %d does not match summary %+v", st.Round, st.Pending, st.Summary)
					}
				}
			})
			// The saturated run closes one round a step, so the 512 measured
			// steps were rounds [rt.round-512, rt.round).
			if captures == 0 {
				t.Fatal("no capture fired during warm-up; the gate proved nothing about the checkpoint trigger")
			}
			if lastRound >= rt.round-512 {
				t.Fatalf("a capture fired at round %d, inside the measured rounds [%d, %d)", lastRound, rt.round-512, rt.round)
			}
		})
	}
}

// TestPeriodicCapturesCanBeKept: every periodic capture is the
// callback's to keep. A K=2 RoundRobin drain keeps each state it is
// handed and hashes its flows, policy scratch and window sketch on the
// spot; after the run, every kept state must still hash the same, so no
// later capture wrote into an earlier one's buffers.
func TestPeriodicCapturesCanBeKept(t *testing.T) {
	hash := func(st *CheckpointState) uint64 {
		h := fnv.New64a()
		fmt.Fprint(h, st.Round, st.Pending, st.Flows, st.Scratch, st.Windows)
		return h.Sum64()
	}
	var kept []*CheckpointState
	var sums []uint64
	rt, err := New(&sliceSource{flows: genFlows(8, 200, 12)}, Config{
		Switch:                switchnet.UnitSwitch(8),
		Policy:                ByName("RoundRobin"),
		Shards:                2,
		MaxPending:            256,
		CheckpointEveryRounds: 13,
		OnCheckpoint: func(st *CheckpointState) {
			kept = append(kept, st)
			sums = append(sums, hash(st))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(kept) < 10 {
		t.Fatalf("only %d captures fired", len(kept))
	}
	for i, st := range kept {
		if st.Pending == 0 || st.Scratch == nil {
			t.Fatalf("capture %d at round %d carries no backlog (%d pending) or no scratch", i, st.Round, st.Pending)
		}
		if got := hash(st); got != sums[i] {
			t.Fatalf("capture %d (round %d) changed after its callback returned: hash %x, was %x", i, st.Round, got, sums[i])
		}
	}
}

// TestSteadyStateZeroAllocRecorded extends the allocation gate to the
// instrumented path: with a flight recorder attached, a steady-state
// round still performs zero heap allocations — Record stores into the
// preallocated atomic ring and the timing hooks read the monotonic clock
// without touching the allocator. The ring is smaller than the measured
// iteration count, so wrap-around is exercised inside the gate too.
func TestSteadyStateZeroAllocRecorded(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("K%d", shards), func(t *testing.T) {
			rec := obs.NewFlightRecorder(256)
			testSteadyStateZeroAlloc(t, shards, ByName("RoundRobin"), AdmitLossless, 0, rec)
			if rec.Written() == 0 {
				t.Fatal("recorder saw no rounds")
			}
			last := rec.Last(nil, 1)
			if len(last) != 1 || last[0].Scheduled == 0 {
				t.Fatalf("steady-state record looks wrong: %+v", last)
			}
		})
	}
}
