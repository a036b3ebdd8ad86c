package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"flowsched/internal/switchnet"
)

// helper is one of the package's pooled entry points and the capacities it
// checks at: CheckSchedule at the switch's own, which it is passed,
// CheckScaled at 2x and CheckAugmented at +1, which they raise themselves.
type helper struct {
	name  string
	check func(inst *switchnet.Instance, sched *switchnet.Schedule, caps []int) (*Report, error)
	caps  func(*switchnet.Instance) []int
}

var helpers = []helper{
	{"CheckSchedule",
		CheckSchedule,
		func(inst *switchnet.Instance) []int { return inst.Switch.Caps() }},
	{"CheckScaled",
		func(inst *switchnet.Instance, sched *switchnet.Schedule, _ []int) (*Report, error) {
			return CheckScaled(inst, sched, 2)
		},
		func(inst *switchnet.Instance) []int { return switchnet.ScaleCaps(inst.Switch.Caps(), 2) }},
	{"CheckAugmented",
		func(inst *switchnet.Instance, sched *switchnet.Schedule, _ []int) (*Report, error) {
			return CheckAugmented(inst, sched, 1)
		},
		func(inst *switchnet.Instance) []int { return switchnet.AddCaps(inst.Switch.Caps(), 1) }},
}

// onOneP runs f with GOMAXPROCS at 1, so that a Checker a helper puts back
// is the one the next helper call takes: a sync.Pool's private slot is per
// P.
func onOneP(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
}

// TestReportsOutliveTheNextCheck: a Report a helper returned is the
// caller's. Two infeasible checks in a row, on different instances, run on
// the same pooled Checker; the second must not rewrite the first's
// violations or its error.
func TestReportsOutliveTheNextCheck(t *testing.T) {
	first := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 2, Release: 0},
			{In: 1, Out: 0, Demand: 2, Release: 1},
		},
	}
	firstSched := &switchnet.Schedule{Round: []int{0, 0}} // before release; output 0 overloaded
	second := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(3),
		Flows: []switchnet.Flow{
			{In: 2, Out: 1, Demand: 3},
			{In: 2, Out: 2, Demand: 3},
			{In: 0, Out: 0, Demand: 1},
		},
	}
	secondSched := &switchnet.Schedule{Round: []int{4, 4, switchnet.Unscheduled}} // unscheduled; input 2 overloaded
	for _, h := range helpers {
		onOneP(func() {
			rep, err := h.check(first, firstSched, h.caps(first))
			if err == nil {
				t.Fatalf("%s: the first schedule passed", h.name)
			}
			violations, msg := slices.Clone(rep.Violations), err.Error()
			if _, err := h.check(second, secondSched, h.caps(second)); err == nil {
				t.Fatalf("%s: the second schedule passed", h.name)
			}
			if !slices.Equal(rep.Violations, violations) {
				t.Errorf("%s: the next check rewrote a returned Report's violations:\n got %q\nwant %q", h.name, rep.Violations, violations)
			}
			if got := rep.Err().Error(); got != msg {
				t.Errorf("%s: the next check changed a returned Report's Err:\n got %q\nwant %q", h.name, got, msg)
			}
		})
	}
}

// TestPooledChecksMatchFreshChecker: four goroutines check their own
// instances through the three helpers, feasible and infeasible, sharing
// the pool; every Report equals, field for field, the one a fresh Checker
// gives on the capacities the helper raises to.
func TestPooledChecksMatchFreshChecker(t *testing.T) {
	const goroutines, trials = 4, 150
	var (
		wg                   sync.WaitGroup
		mu                   sync.Mutex
		feasible, infeasible int
	)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(31 + g)))
			var ok, bad int
			for trial := range trials {
				inst, sched := randomWindow(rng)
				h := helpers[trial%len(helpers)]
				caps := h.caps(inst)
				got, gotErr := h.check(inst, sched, caps)
				var fresh Checker
				want, wantErr := fresh.Check(inst, sched, caps)
				label := fmt.Sprintf("goroutine %d trial %d %s", g, trial, h.name)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: pooled report\n %+v\nfresh Checker\n %+v", label, got, want)
					return
				}
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("%s: err %v, want %v", label, gotErr, wantErr)
					return
				}
				if want.Feasible() {
					ok++
				} else {
					bad++
				}
			}
			mu.Lock()
			feasible, infeasible = feasible+ok, infeasible+bad
			mu.Unlock()
		}()
	}
	wg.Wait()
	if !t.Failed() && (feasible < goroutines*trials/10 || infeasible < goroutines*trials/10) {
		t.Fatalf("generator is lopsided: %d feasible, %d infeasible", feasible, infeasible)
	}
}

// randomWindow draws a small switch with capacities 1..3 and up to 30 flows
// over a span that sometimes overloads a port, with now and then a flow
// left unscheduled.
func randomWindow(rng *rand.Rand) (*switchnet.Instance, *switchnet.Schedule) {
	nIn, nOut := 1+rng.Intn(5), 1+rng.Intn(5)
	inst := &switchnet.Instance{Switch: switchnet.NewSwitch(nIn, nOut, 1)}
	for i := range inst.Switch.InCaps {
		inst.Switch.InCaps[i] = 1 + rng.Intn(3)
	}
	for j := range inst.Switch.OutCaps {
		inst.Switch.OutCaps[j] = 1 + rng.Intn(3)
	}
	n := rng.Intn(30)
	span := 1 + rng.Intn(2*n+1)
	sched := switchnet.NewSchedule(n)
	for f := range n {
		inst.Flows = append(inst.Flows, switchnet.Flow{
			In: rng.Intn(nIn), Out: rng.Intn(nOut), Demand: 1 + rng.Intn(3), Release: rng.Intn(4),
		})
		sched.Round[f] = inst.Flows[f].Release + rng.Intn(span)
	}
	if n > 0 && rng.Intn(6) == 0 {
		sched.Round[rng.Intn(n)] = switchnet.Unscheduled
	}
	return inst, sched
}

// TestWarmCheckAllocatesItsReport: on a 5x5 unit switch with 25 unit flows,
// a paper-model instance, a warmed feasible CheckScaled, CheckAugmented and
// CheckSchedule each allocate the Report they return and nothing else — no
// Checker, no capacities, no scratch.
func TestWarmCheckAllocatesItsReport(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race a sync.Pool drops one Put in four")
	}
	const ports, rounds, flows = 5, 5, 25
	rng := rand.New(rand.NewSource(1))
	inst := &switchnet.Instance{Switch: switchnet.UnitSwitch(ports)}
	for range flows {
		inst.Flows = append(inst.Flows, switchnet.Flow{In: rng.Intn(ports), Out: rng.Intn(ports), Demand: 1, Release: rng.Intn(rounds)})
	}
	sched := greedy(inst)
	// The Report is one object, of a size class that is a multiple of 16 at
	// this size: 112 B on a 64-bit platform.
	report := float64((unsafe.Sizeof(Report{}) + 15) / 16 * 16)
	for _, h := range helpers {
		caps := h.caps(inst)
		check := func() {
			if _, err := h.check(inst, sched, caps); err != nil {
				t.Fatalf("%s: %v", h.name, err)
			}
		}
		var allocs, bytes float64
		onOneP(func() {
			check()
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				check()
			}
			runtime.ReadMemStats(&after)
			allocs = float64(after.Mallocs-before.Mallocs) / runs
			bytes = float64(after.TotalAlloc-before.TotalAlloc) / runs
		})
		if allocs > 1 || bytes > report {
			t.Errorf("a warm %s: %v allocations and %v bytes per call, want at most 1 and %v (its Report)", h.name, allocs, bytes, report)
		}
	}
}

// greedy schedules each flow, in flow order, at the first round from its
// release where both its ports have room: a feasible schedule at the
// switch's capacities.
func greedy(inst *switchnet.Instance) *switchnet.Schedule {
	caps := inst.Switch.Caps()
	nIn := inst.Switch.NumIn()
	type pr struct{ port, round int }
	load := make(map[pr]int)
	sched := switchnet.NewSchedule(len(inst.Flows))
	for f, e := range inst.Flows {
		in, out := e.In, nIn+e.Out
		t := e.Release
		for load[pr{in, t}]+e.Demand > caps[in] || load[pr{out, t}]+e.Demand > caps[out] {
			t++
		}
		load[pr{in, t}] += e.Demand
		load[pr{out, t}] += e.Demand
		sched.Round[f] = t
	}
	return sched
}
