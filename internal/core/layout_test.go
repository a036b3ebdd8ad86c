package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"flowsched/internal/lp"
	"flowsched/internal/switchnet"
)

// The paper's three LPs by name, as the tests build them: the one builder
// at each layout. What they return is never released.

// artLowerBoundLP is LP (1)-(4) over the rounds [r_e, horizon) with its
// start.
func artLowerBoundLP(inst *switchnet.Instance, horizon int, placed []int) (*lp.Problem, []float64) {
	m := newTimeLP(inst, fromRelease(inst, horizon), artLayout, placed)
	return &m.p, m.start
}

// intervalLP is LP (5)-(8) over the rounds [r_e, horizon) with its windows
// and its start.
func intervalLP(inst *switchnet.Instance, horizon int, placed []int) (*lp.Problem, Windows, []float64) {
	m := newTimeLP(inst, fromRelease(inst, horizon), intervalLayout, placed)
	return &m.p, m.win, m.start
}

// timeConstrainedLP is LP (19)-(21) over win.
func timeConstrainedLP(inst *switchnet.Instance, win Windows, placed []int) *timeLP {
	return newTimeLP(inst, win, windowLayout, placed)
}

// layoutHash is the FNV-1a hash of an LP as built and of the point its solve
// starts from: the variable count, every variable's cost and bounds, every
// row's sense, right-hand side and entries in row order, then the start.
// Floats are hashed by their bits, so a changed coefficient, a reordered row
// or a reordered entry changes it even where the optimum would survive.
func layoutHash(p *lp.Problem, start []float64) uint64 {
	h := fnv.New64a()
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	putF := func(v float64) { put(math.Float64bits(v)) }
	put(uint64(p.NumVars()))
	for j := range p.NumVars() {
		c, lo, hi := p.Var(j)
		putF(c)
		putF(lo)
		putF(hi)
	}
	put(uint64(p.NumRows()))
	for i := range p.NumRows() {
		idx, val, sense, rhs := p.Row(i)
		put(uint64(sense))
		putF(rhs)
		put(uint64(len(idx)))
		for k, j := range idx {
			put(uint64(j))
			putF(val[k])
		}
	}
	put(uint64(len(start)))
	for _, v := range start {
		putF(v)
	}
	h.Write(buf)
	return h.Sum64()
}

// TestWarmedCallsAllocate pins what the offline pipeline allocates once
// warmed, on TestPaperModelGolden's 5x5 instance, in allocations and in
// bytes: every piece of scratch — the LPs and their Solutions, the
// rounding's, the colouring's and the oracle's included — comes back from
// the pool's workspace, so a call allocates its result and nothing else:
// ARTLowerBound its result struct, SolveART that and its Schedule (struct
// and rounds, 25 flows), SolveMRT those and the TimeConstrainedResult in
// it, MRTLowerBound nothing. A builder that copies its rows again, a
// Solution that is not kept, or a scratch array that is not in the
// workspace shows up here as more. (Seed 7's SolveMRT is the path that
// builds LP (19)-(21) and rounds it; on seed 1 first fit answers.)
func TestWarmedCallsAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race a sync.Pool drops one Put in four")
	}
	golden, short := paperInstance(1, 5, 5, 25), paperInstance(7, 5, 5, 25)
	for _, c := range []struct {
		name          string
		allocs, bytes float64
		call          func() error
	}{
		{"ARTLowerBound", 1, 112, func() error { _, err := ARTLowerBound(golden); return err }},
		{"SolveART", 3, 392, func() error { _, err := SolveART(golden, 1); return err }},
		{"MRTLowerBound", 0, 0, func() error { _, err := MRTLowerBound(golden); return err }},
		{"SolveMRT", 4, 472, func() error { _, err := SolveMRT(golden); return err }},
		{"SolveMRT/seed7", 4, 472, func() error { _, err := SolveMRT(short); return err }},
	} {
		call := func() {
			if err := c.call(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		if allocs, bytes := warmCost(20, call, call); allocs > c.allocs || bytes > c.bytes {
			t.Errorf("%s: %v allocations and %v bytes per warmed call, want at most %v and %v", c.name, allocs, bytes, c.allocs, c.bytes)
		}
	}
}

// TestWarmARTLowerBoundAllocatesItsResult: once the pool's workspace has
// served a larger instance, ARTLowerBound on smaller ones — each a
// different instance — allocates its result and nothing else, in bytes as
// well as in count.
func TestWarmARTLowerBoundAllocatesItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race a sync.Pool drops one Put in four")
	}
	large := paperInstance(1, 10, 10, 100)
	small := paperInstances(3, 8, 5, 5, 25)
	i := 0
	allocs, bytes := warmCost(len(small),
		func() {
			if _, err := ARTLowerBound(large); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if _, err := ARTLowerBound(small[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	// The result is one object, of a size class that is a multiple of 16 at
	// this size.
	result := float64((unsafe.Sizeof(ARTLowerBoundResult{}) + 15) / 16 * 16)
	if allocs != 1 || bytes != result {
		t.Errorf("a warm ARTLowerBound on a smaller instance: %v allocations and %v bytes per call, want 1 and %v (its result)", allocs, bytes, result)
	}
}

// warmCost runs warm once, then f runs times, and returns f's mean
// allocations and bytes, all on one P, as testing.AllocsPerRun measures: a
// sync.Pool's private slot is per P, and what warm put there is what f
// gets back.
func warmCost(runs int, warm, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	warm()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestLayoutGolden pins how each of the three LPs is laid out, not only what
// it solves to: LP (1)-(4) and LP (5)-(8) as ARTLowerBound and SolveART
// first build them (over the first-fit horizon, started there), and LP
// (19)-(21) built at rho and started at first fit, on TestPaperModelGolden's
// instances and on one where first fit leaves a flow out at rho, so that
// SolveMRT builds that LP too. A changed row order, entry order,
// coefficient, bound or start shows up here even where no optimum, rho or
// schedule moves.
func TestLayoutGolden(t *testing.T) {
	for _, c := range []struct {
		name                 string
		seed                 int64
		ports, rounds, flows int
		art, interval, atRho uint64
		fitAtRho             bool // first fit places every flow at rho
	}{
		{"5x5_25/seed1", 1, 5, 5, 25, 0xafddba877e097bfb, 0xc1c63e810c031c04, 0x6959aaafb063216b, true},
		{"5x5_25/seed2", 2, 5, 5, 25, 0xcc99d11aa368b398, 0xe1d1a059d62e2f2a, 0xaaa8c505ec68cc3c, true},
		{"10x10_100/seed1", 1, 10, 10, 100, 0x386d1a689be2ff51, 0x095d3382a47b41ed, 0x4823a549d4104c8e, true},
		{"5x5_25/seed7", 7, 5, 5, 25, 0xbc12459ab443d9f3, 0x49d1fc3e4db86d90, 0xdc13ed5e3f0db066, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			inst := paperInstance(c.seed, c.ports, c.rounds, c.flows)
			full := inst.CongestionHorizon()
			var got [3]uint64
			placed := firstFit(inst, releaseOrder(inst), fromRelease(inst, full), 1)
			got[0] = layoutHash(artLowerBoundLP(inst, fitHorizon(inst, placed, 1, full), placed))
			placed = firstFit(inst, releaseOrder(inst), fromRelease(inst, full), 4)
			p, _, start := intervalLP(inst, fitHorizon(inst, placed, 4, full), placed)
			got[1] = layoutHash(p, start)
			rho, err := MRTLowerBound(inst)
			if err != nil {
				t.Fatal(err)
			}
			win := ResponseWindows(inst, rho)
			placed = firstFit(inst, deadlineOrder(win), win, 1)
			m := timeConstrainedLP(inst, win, placed)
			got[2] = layoutHash(&m.p, m.start)
			if placedAll(placed) != c.fitAtRho {
				t.Errorf("first fit places every flow at rho %d: %v, want %v", rho, placedAll(placed), c.fitAtRho)
			}
			if want := [3]uint64{c.art, c.interval, c.atRho}; got != want {
				t.Errorf("layout hashes (LP (1)-(4), LP (5)-(8), LP (19)-(21) at rho %d) = %#x, want %#x", rho, got, want)
			}
		})
	}
}
