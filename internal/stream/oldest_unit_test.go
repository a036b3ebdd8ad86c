package stream

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// TestOldestFirstLayoutFollowsSwitch holds the layout choice to the
// switch's shape. One OldestFirst value runs, at K in {1, 2}, on a unit
// switch, on capacity 2, on unit ports but one output of capacity 2, and
// on unit ports again: every instance picks on the window exactly when
// every port has capacity 1, and still does after a Reload to
// WeightedISLIP and back and after a checkpoint is restored into a new
// runtime over the same value.
func TestOldestFirstLayoutFollowsSwitch(t *testing.T) {
	const ports = 6
	mixed := switchnet.UnitSwitch(ports)
	mixed.OutCaps[ports-1] = 2
	pol := &OldestFirst{}
	check := func(rt *Runtime, where string, unit bool) {
		t.Helper()
		for _, p := range rt.instances() {
			if p := p.(*OldestFirst); p.windowed() != unit || !p.built {
				t.Fatalf("%s: an instance picks on the window: %v (built %v), want %v", where, p.windowed(), p.built, unit)
			}
		}
	}
	for _, tc := range []struct {
		name string
		sw   switchnet.Switch
		unit bool
	}{
		{"unit", switchnet.UnitSwitch(ports), true},
		{"cap2", switchnet.NewSwitch(ports, ports, 2), false},
		{"mixed", mixed, false},
		{"unit-again", switchnet.UnitSwitch(ports), true},
	} {
		for _, K := range []int{1, 2} {
			name := fmt.Sprintf("%s/K%d", tc.name, K)
			cfg := Config{Switch: tc.sw, Policy: pol, Shards: K, MaxPending: 64}
			rt, err := New(&patternSource{ports: ports, per: ports * 3 / 2}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			steps := func(n int) {
				for range n {
					if _, err := rt.step(); err != nil {
						t.Fatal(err)
					}
				}
			}
			steps(40)
			check(rt, name, tc.unit)
			for _, next := range []Policy{ByName("WeightedISLIP"), pol} {
				if err := rt.Reload(context.Background(), ReloadConfig{Policy: next, MaxPending: cfg.MaxPending}); err != nil {
					t.Fatal(err)
				}
				steps(10)
			}
			check(rt, name+" after a Reload", tc.unit)
			st, err := rt.CheckpointState(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			tail := &patternSource{ports: ports, per: ports * 3 / 2}
			workload.Skip(tail, st.SourceFlows())
			cfg.Resume = &st
			if rt, err = New(tail, cfg); err != nil {
				t.Fatal(err)
			}
			steps(10)
			check(rt, name+" after a restore", tc.unit)
		}
	}
}

// TestOldestFirstShardsReuseWindowStorage pins where the instances'
// storage lives: each instance owns its window and scratch, and the value
// keeps the instances it hands out, so a runtime built from a value that
// has run before allocates none of it. Two K=2 runtimes drain the same
// flows on the paper's 150 unit ports over one OldestFirst value, deep
// enough that the window outgrows its first size. The second allocates,
// over New and Run, at least the kept windows less than the first; it
// picks through the same two instances, each in the window, sync mask,
// free-port masks and pair scratch the first runtime left, and none
// rebuilds its window for the span.
func TestOldestFirstShardsReuseWindowStorage(t *testing.T) {
	const ports = 150
	pol := &OldestFirst{}
	drain := func() (*Runtime, uint64) {
		src := workload.NewArrivalSource(workload.ArrivalConfig{Ports: ports, M: 2 * ports, MaxFlows: 1 << 15},
			rand.New(rand.NewSource(1)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt, err := New(src, Config{Switch: switchnet.UnitSwitch(ports), Policy: pol, Shards: 2, MaxPending: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return rt, after.TotalAlloc - before.TotalAlloc
	}
	// storage is an instance's window and scratch, each slice by its
	// backing array.
	type storage struct {
		win, mask, freeIn, freeOut *uint64
		pairs                      *int32
	}
	scratch := func(p *OldestFirst) storage {
		return storage{unsafe.SliceData(p.win), unsafe.SliceData(p.mask), unsafe.SliceData(p.freeIn),
			unsafe.SliceData(p.freeOut), unsafe.SliceData(p.pairs)}
	}
	_, first := drain()
	if len(pol.shards) != 2 {
		t.Fatalf("the value keeps %d instances, want 2", len(pol.shards))
	}
	held, kept := uint64(0), make([]storage, 2)
	for k, p := range pol.shards {
		if p.grows == 0 {
			t.Fatalf("scope %d never rebuilt its window for the span: the drain does not reach past its first size", k)
		}
		held += 8 * uint64(cap(p.win))
		kept[k] = scratch(p)
	}
	rt, second := drain()
	if first < second+held {
		t.Fatalf("the first runtime allocated %d bytes, the second %d: want it %d less, the window storage kept", first, second, held)
	}
	for k, p := range rt.instances() {
		p := p.(*OldestFirst)
		if p != pol.shards[k] {
			t.Fatalf("scope %d picks through an instance the value did not keep", k)
		}
		if got := scratch(p); got != kept[k] {
			t.Fatalf("scope %d picks in storage the first runtime did not leave: %+v then, %+v now", k, kept[k], got)
		}
		if p.grows != 0 {
			t.Fatalf("scope %d rebuilt its window %d times for the span: the kept storage already spanned the drain", k, p.grows)
		}
	}
}

// TestOldestFirstMatchesReferenceAtPaperPorts holds the window to the
// reference on the paper's 150 unit ports at twice their service rate,
// with 8k flows resident, at K in {1, 2, 3}: the same (seq, round)
// stream.
func TestOldestFirstMatchesReferenceAtPaperPorts(t *testing.T) {
	const ports, backlog, flows = 150, 8192, 30000
	src := func() Source {
		return workload.NewArrivalSource(workload.ArrivalConfig{Ports: ports, M: 2 * ports, MaxFlows: flows},
			rand.New(rand.NewSource(3)))
	}
	sw := switchnet.UnitSwitch(ports)
	for _, K := range []int{1, 2, 3} {
		want, _ := ofTrace(t, src(), sw, refOldest{}, K, backlog)
		got, rt := ofTrace(t, src(), sw, &OldestFirst{}, K, backlog)
		sameTrace(t, got, want)
		if rt.peak != backlog {
			t.Fatalf("K=%d: backlog peaked at %d, want the admission limit %d", K, rt.peak, backlog)
		}
	}
}

// TestOldestFirstBurstBoundsWindow holds the window's size to
// ofMaxSlots whatever the span of pending releases. One VOQ holds a
// burst of 3,000 flows released at round 0, served one a round, while
// every other input gets fresh flows each round: the pending releases
// come to span thousands of rounds, so the window grows to its most
// slots and the lists stand in past them. At K in {1, 2}, with the
// layout held to a from-scratch build (listProbe) after every build and
// rebuild and every 8th pick, the schedule must be the reference's, and
// no window may hold more than ofMaxSlots slots.
func TestOldestFirstBurstBoundsWindow(t *testing.T) {
	const ports, burst = 16, 3000
	rng := rand.New(rand.NewSource(5))
	var flows []switchnet.Flow
	for range burst {
		flows = append(flows, switchnet.Flow{In: 0, Out: 0, Demand: 1, Release: 0})
	}
	for r := 1; r < burst; r++ {
		for range 2 {
			flows = append(flows, switchnet.Flow{In: 1 + rng.Intn(ports-1), Out: rng.Intn(ports), Demand: 1, Release: r})
		}
	}
	sw := switchnet.UnitSwitch(ports)
	for _, K := range []int{1, 2} {
		want, _ := ofTrace(t, &sliceSource{flows: flows}, sw, refOldest{}, K, 0)
		got, rt := ofTrace(t, &sliceSource{flows: flows}, sw, &listProbe{t: t, p: &OldestFirst{}, every: 8}, K, 0)
		sameTrace(t, got, want)
		for _, pol := range rt.instances() {
			q := pol.(*listProbe)
			if q.p.slots > ofMaxSlots || q.windows == 0 || q.windows == q.checks {
				t.Fatalf("K=%d: a window of %d slots checked on %d of %d picks: want at most %d slots, and the lists standing in past them",
					K, q.p.slots, q.windows, q.checks, ofMaxSlots)
			}
		}
	}
}

// TestOldestFirstStandingSpanSettles pins the hand-over's hysteresis. One
// VOQ holds a standing queue of some ofMaxSlots flows, fed zero to two a
// round and served one, so the span of pending releases wanders back
// and forth across ofMaxSlots for thousands of rounds. The lists take
// over once and keep the pick until the queue drains: each instance
// builds its window, the lists, and the window again, not one layout a
// crossing.
func TestOldestFirstStandingSpanSettles(t *testing.T) {
	const ports, rounds = 8, 4000
	rng := rand.New(rand.NewSource(9))
	var flows []switchnet.Flow
	for range ofMaxSlots {
		flows = append(flows, switchnet.Flow{In: 0, Out: 0, Demand: 1, Release: 0})
	}
	for r := 1; r < rounds; r++ {
		for range rng.Intn(3) {
			flows = append(flows, switchnet.Flow{In: 0, Out: 0, Demand: 1, Release: r})
		}
		flows = append(flows, switchnet.Flow{In: 1 + rng.Intn(ports-1), Out: rng.Intn(ports), Demand: 1, Release: r})
	}
	for _, K := range []int{1, 2} {
		_, rt := ofTrace(t, &sliceSource{flows: flows}, switchnet.UnitSwitch(ports), &OldestFirst{}, K, 0)
		for _, p := range rt.instances() {
			if p := p.(*OldestFirst); p.builds > 3 {
				t.Fatalf("K=%d: an instance built its layouts %d times, want at most 3", K, p.builds)
			}
		}
	}
}
