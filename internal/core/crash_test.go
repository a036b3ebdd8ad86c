package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"flowsched/internal/lp"
	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
)

// crashInstance draws an instance for the crash-start tests: ports with
// capacities 1..maxCap on both sides, flows of demand 1..min(maxDemand,
// kappa), releases uniform on [0, rounds).
func crashInstance(rng *rand.Rand, ports, rounds, flows, maxCap, maxDemand int) *switchnet.Instance {
	sw := switchnet.NewSwitch(ports, ports, 1)
	for i := range sw.InCaps {
		sw.InCaps[i], sw.OutCaps[i] = 1+rng.Intn(maxCap), 1+rng.Intn(maxCap)
	}
	inst := &switchnet.Instance{Switch: sw, Flows: make([]switchnet.Flow, flows)}
	for f := range inst.Flows {
		e := switchnet.Flow{In: rng.Intn(ports), Out: rng.Intn(ports), Release: rng.Intn(rounds)}
		e.Demand = 1 + rng.Intn(min(maxDemand, sw.InCaps[e.In], sw.OutCaps[e.Out]))
		inst.Flows[f] = e
	}
	return inst
}

// portRound keys a per-(port, round) constraint row in the tests' map-built
// reference.
type portRound struct{ port, t int }

// sortedPortRounds returns the map's keys ordered by (port, t): the row
// order the LP builders used when they grouped variables through a map, and
// the one newTimeLP must keep.
func sortedPortRounds(m map[portRound][]int) []portRound {
	keys := make([]portRound, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b portRound) int {
		return cmp.Or(a.port-b.port, a.t-b.t)
	})
	return keys
}

// checkPlacement verifies what firstFit promises: every placed flow sits on
// one of its own rounds and no (port, window) — a round at width 1 — is
// loaded past width times the capacity.
func checkPlacement(t *testing.T, inst *switchnet.Instance, win Windows, width int, placed []int) {
	t.Helper()
	load := map[portRound]int{}
	for f, k := range placed {
		if k < 0 {
			continue
		}
		if k >= len(win[f]) {
			t.Fatalf("flow %d placed at position %d of its %d rounds", f, k, len(win[f]))
		}
		e := inst.Flows[f]
		load[portRound{inst.Switch.PortIndex(switchnet.In, e.In), win[f][k] / width}] += e.Demand
		load[portRound{inst.Switch.PortIndex(switchnet.Out, e.Out), win[f][k] / width}] += e.Demand
	}
	for k, l := range load {
		if l > width*inst.Switch.Cap(k.port) {
			t.Fatalf("port %d window %d loaded %d > %d times capacity %d", k.port, k.t, l, width, inst.Switch.Cap(k.port))
		}
	}
}

func TestFirstFit(t *testing.T) {
	sw := switchnet.NewSwitch(2, 2, 1)
	sw.InCaps[1] = 2
	sw.OutCaps[1] = 2
	inst := &switchnet.Instance{Switch: sw, Flows: []switchnet.Flow{
		{In: 0, Out: 0, Demand: 1}, // 0
		{In: 0, Out: 1, Demand: 1}, // 1: shares input 0 with flow 0
		{In: 1, Out: 1, Demand: 2}, // 2: fills port 1's capacity alone
		{In: 1, Out: 1, Demand: 1}, // 3
		{In: 0, Out: 0, Demand: 1}, // 4: both its rounds are taken
	}}
	// Six unit flows through one unit port pair, the last two released
	// late: at width 4 a window holds four of them.
	queue := &switchnet.Instance{Switch: switchnet.UnitSwitch(1), Flows: make([]switchnet.Flow, 6)}
	for f := range queue.Flows {
		queue.Flows[f].Demand = 1
	}
	upTo9 := func(from int) []int {
		var rounds []int
		for r := from; r <= 9; r++ {
			rounds = append(rounds, r)
		}
		return rounds
	}
	queued := Windows{upTo9(0), upTo9(0), upTo9(0), upTo9(0), upTo9(2), upTo9(5)}
	all := []int{0, 1, 2, 3, 4, 5}
	for _, c := range []struct {
		name  string
		inst  *switchnet.Instance
		width int
		win   Windows
		order []int
		want  []int // round per flow, -1 unplaced
	}{
		{"index order", inst, 1, Windows{{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}}, all[:5], []int{0, 1, 0, 1, -1}},
		{"reverse order", inst, 1, Windows{{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}}, []int{4, 3, 2, 1, 0}, []int{1, -1, 1, 0, 0}},
		{"sparse unsorted windows", inst, 1, Windows{{7}, {7, 3}, {1000000, 3}, {3}, {7, 5}}, all[:5], []int{7, 3, 1000000, 3, 5}},
		{"partial order", inst, 1, Windows{{0}, {0}, {0}, {0}, {0}}, []int{1}, []int{-1, 0, -1, -1, -1}},
		// Width 1: one flow per round, as ever.
		{"queue, width 1", queue, 1, queued, all, []int{0, 1, 2, 3, 4, 5}},
		// Width 4: window [0, 4) takes four flows, each at the earliest of
		// its rounds; the fifth finds it full although rounds 2 and 3 are
		// its own, and goes to the first round of window [4, 8); the sixth
		// joins it there at its own earliest round.
		{"queue, width 4", queue, 4, queued, all, []int{0, 0, 0, 0, 4, 5}},
		// Room is 4*c_p minus what is placed, in demand units: port 1 (c_p
		// 2) holds 8 per window, ports 0 hold 4, so round 0 takes all five.
		{"width 4, capacities and demands", inst, 4, Windows{{0, 1}, {0, 1}, {0, 1}, {0, 1}, {0, 1}}, all[:5], []int{0, 0, 0, 0, 0}},
		// The fifth flow has no round outside the full window [0, 4).
		{"width 4, full window", queue, 4, Windows{{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}, {9}}, all, []int{0, 0, 0, 0, -1, 9}},
	} {
		t.Run(c.name, func(t *testing.T) {
			inst := c.inst
			placed := firstFit(inst, c.order, c.win, c.width)
			checkPlacement(t, inst, c.win, c.width, placed)
			got := make([]int, len(placed))
			for f, k := range placed {
				got[f] = -1
				if k >= 0 {
					got[f] = c.win[f][k]
				}
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("rounds %v, want %v", got, c.want)
			}
		})
	}
}

// TestWindowSlots: slots follow the windows' order and are never more than
// the rounds they number, however far those rounds lie — a far batch is
// numbered from its first window, sparse rounds by rank.
func TestWindowSlots(t *testing.T) {
	const far = 1 << 50
	for _, c := range []struct {
		name  string
		win   Windows
		width int
		n     int
		slots []int // per round of win, flattened
	}{
		{"empty", Windows{{}, nil}, 1, 0, nil},
		{"dense from zero", Windows{{0, 1, 2}, {2}}, 1, 3, []int{0, 1, 2, 2}},
		{"far batch", Windows{{far + 1, far + 2}, {far + 3}}, 1, 3, []int{0, 1, 2}},
		{"far batch, width 4", Windows{{far, far + 5}, {far + 9}}, 4, 3, []int{0, 1, 2}},
		{"sparse", Windows{{7, 1000000}, {3}}, 1, 3, []int{1, 2, 0}},
		{"sparse, width 4", Windows{{far + 3, 1}, {far}}, 4, 2, []int{1, 0, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := newWindowSlots(c.win, c.width)
			var got []int
			for _, rounds := range c.win {
				for _, r := range rounds {
					got = append(got, s.slot(r))
				}
			}
			if s.n != c.n || !slices.Equal(got, c.slots) {
				t.Errorf("n %d slots %v, want %d %v", s.n, got, c.n, c.slots)
			}
		})
	}
}

// TestPortRowsMatchSortedMap: the builder's port rows are exactly the rows,
// in exactly the order, that the map-and-sort construction of the first LP
// builders produced, each weighing its variables by their flows' demands
// against the port's capacity — the property that keeps lp.Stats and every
// pivot count of the rebuilt LPs where they were.
func TestPortRowsMatchSortedMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		inst := crashInstance(rng, 2+rng.Intn(4), 6, 1+rng.Intn(20), 3, 2)
		win := make(Windows, inst.N())
		for f, e := range inst.Flows {
			for t := e.Release + 8; t >= e.Release; t-- { // descending and gappy
				if rng.Intn(3) > 0 {
					win[f] = append(win[f], t*7)
				}
			}
			if len(win[f]) == 0 {
				win[f] = []int{e.Release * 7}
			}
		}
		want := make(map[portRound][]int)
		var demand []float64 // per variable
		for f, rounds := range win {
			e := inst.Flows[f]
			for _, r := range rounds {
				for _, port := range []int{inst.Switch.PortIndex(switchnet.In, e.In), inst.Switch.PortIndex(switchnet.Out, e.Out)} {
					k := portRound{port, r}
					want[k] = append(want[k], len(demand))
				}
				demand = append(demand, float64(e.Demand))
			}
		}
		p := &timeConstrainedLP(inst, win, nil).p
		keys := sortedPortRounds(want)
		if p.NumRows() != inst.N()+len(keys) {
			t.Fatalf("trial %d: %d rows, want %d covering and %d port rows", trial, p.NumRows(), inst.N(), len(keys))
		}
		for k, key := range keys {
			idx, val, sense, rhs := p.Row(inst.N() + k)
			weights := make([]float64, len(idx))
			for i, j := range idx {
				weights[i] = demand[j]
			}
			if !slices.Equal(idx, want[key]) || !slices.Equal(val, weights) || sense != lp.LE || rhs != float64(inst.Switch.Cap(key.port)) {
				t.Fatalf("trial %d port row %d: vars %v weights %v %v %v, want port %d round %d vars %v <= %d",
					trial, k, idx, val, sense, rhs, key.port, key.t, want[key], inst.Switch.Cap(key.port))
			}
		}
	}
}

// coldRho is the search of MRTLowerBound by linear scan with cold-started
// solves: the reference the crash-started binary search must agree with.
func coldRho(t *testing.T, inst *switchnet.Instance) int {
	t.Helper()
	for rho := 1; ; rho++ {
		sol, err := timeConstrainedLP(inst, ResponseWindows(inst, rho), nil).p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status == lp.Optimal {
			return rho
		}
		if sol.Status != lp.Infeasible || rho > 4*inst.CongestionHorizon() {
			t.Fatalf("cold LP at rho %d: %v", rho, sol.Status)
		}
	}
}

// TestCrashStartAgreesWithColdStart is the differential test of the crash
// start: over seeded instances with unit and multi-unit demands and port
// capacities 1-4, the solve that starts at the first-fit schedule and the
// one that starts cold agree on everything that is reported — for all three
// LPs, the interval LP on the unit-demand instances it is stated for. It
// also pins the fallback of ARTLowerBound and solveInitialIntervalLP: LP
// (1)-(4) and LP (5)-(8) are Optimal at CongestionHorizon on every instance,
// the ones built to crowd that horizon included, and the optima over the
// first-fit horizon are theirs.
func TestCrashStartAgreesWithColdStart(t *testing.T) {
	rng := rand.New(rand.NewSource(2020))
	wholeStarts, intervalWhole, searched, restricted, fitAtRho := 0, 0, 0, 0, 0
	fixed := []*switchnet.Instance{
		// Paper-model instances whose rho lies above the volume bound, so
		// that the search solves more than one LP; the random draws rarely
		// do.
		paperInstance(19, 4, 5, 12), paperInstance(51, 3, 4, 8), paperInstance(132, 3, 3, 6),
		// The horizon's worst cases. One input of capacity 1 carries every
		// flow, so the flows need exactly the h rounds the horizon allows
		// after the last release.
		{Switch: switchnet.UnitSwitch(4), Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1}, {In: 0, Out: 1, Demand: 1}, {In: 0, Out: 2, Demand: 1}, {In: 0, Out: 3, Demand: 1},
			{In: 0, Out: 0, Demand: 1, Release: 1}, {In: 0, Out: 1, Demand: 1, Release: 1}, {In: 0, Out: 2, Demand: 1, Release: 2},
			{In: 0, Out: 3, Demand: 1, Release: 2}, {In: 0, Out: 0, Demand: 1, Release: 2}, {In: 0, Out: 1, Demand: 1, Release: 2},
		}},
		// Every demand at its ceiling d_e = kappa_e, on shared ports.
		{Switch: switchnet.Switch{InCaps: []int{3, 2, 4}, OutCaps: []int{2, 3, 4}}, Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 2}, {In: 0, Out: 1, Demand: 3}, {In: 0, Out: 2, Demand: 3}, {In: 1, Out: 0, Demand: 2},
			{In: 1, Out: 1, Demand: 2, Release: 1}, {In: 2, Out: 0, Demand: 2, Release: 1}, {In: 2, Out: 2, Demand: 4, Release: 1},
			{In: 2, Out: 2, Demand: 4, Release: 2}, {In: 0, Out: 2, Demand: 3, Release: 2}, {In: 2, Out: 1, Demand: 3, Release: 2},
		}},
		// A straggler released long after the rest have gone: the rounds
		// the proof spreads over begin at its release.
		{Switch: switchnet.UnitSwitch(3), Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1}, {In: 0, Out: 1, Demand: 1}, {In: 0, Out: 2, Demand: 1}, {In: 1, Out: 0, Demand: 1},
			{In: 2, Out: 0, Demand: 1}, {In: 0, Out: 0, Demand: 1, Release: 1}, {In: 0, Out: 1, Demand: 1, Release: 1},
			{In: 0, Out: 0, Demand: 1, Release: 30},
		}},
	}
	for trial := 0; trial < 40+len(fixed); trial++ {
		maxCap, maxDemand := 1+trial%4, 1+(trial/4)%3
		var inst *switchnet.Instance
		if trial < 40 {
			inst = crashInstance(rng, 2+rng.Intn(4), 1+rng.Intn(5), 4+rng.Intn(24), maxCap, maxDemand)
		} else {
			inst = fixed[trial-40]
			if err := inst.Validate(); err != nil {
				t.Fatal(err)
			}
			maxCap, maxDemand = slices.Max(inst.Switch.Caps()), inst.MaxDemand()
		}
		name := fmt.Sprintf("trial %d (%d flows, caps<=%d, demands<=%d)", trial, inst.N(), maxCap, maxDemand)
		inc := 2*inst.MaxDemand() - 1

		// LP (1)-(4): same status and optimum at a horizon that may be too
		// short and at ARTLowerBound's fallback, where it is Optimal.
		var atCongestion *lp.Solution
		for _, horizon := range []int{inst.MaxRelease() + 1, inst.CongestionHorizon()} {
			p, start := artLowerBoundLP(inst, horizon, firstFit(inst, releaseOrder(inst), fromRelease(inst, horizon), 1))
			cold, err := p.Solve()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			warm, err := p.SolveWith(lp.SolveOptions{Start: start})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if warm.Status != cold.Status || (cold.Status == lp.Optimal && math.Abs(warm.Obj-cold.Obj) > 1e-9) {
				t.Fatalf("%s horizon %d: crash-started (%v, %v), cold (%v, %v)", name, horizon, warm.Status, warm.Obj, cold.Status, cold.Obj)
			}
			if warm.Stats.StartAtUpper == inst.N() {
				wholeStarts++
				if warm.Stats.Phase1Pivots != 0 {
					t.Fatalf("%s horizon %d: every flow placed, yet %d phase-1 pivots", name, horizon, warm.Stats.Phase1Pivots)
				}
			}
			atCongestion = cold
		}
		lb, err := ARTLowerBound(inst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if atCongestion.Status != lp.Optimal || lb.Horizon <= inst.MaxRelease() || lb.Horizon > inst.CongestionHorizon() ||
			math.Abs(lb.TotalResponse-atCongestion.Obj) > 1e-9 {
			t.Fatalf("%s: ARTLowerBound (%v, horizon %d), cold solve at the congestion horizon %d (%v, %v)",
				name, lb.TotalResponse, lb.Horizon, inst.CongestionHorizon(), atCongestion.Status, atCongestion.Obj)
		}
		if lb.Horizon < inst.CongestionHorizon() {
			restricted++
		}

		// LP (5)-(8), stated for unit flows: same optimum from the width-4
		// greedy as from a cold start, no phase 1 when the greedy places
		// every flow, and Theorem 1 on top of the started vertex — no forced
		// fix in the rounding, a schedule the oracle accepts at 2x capacity.
		if inst.UnitDemands() {
			h := inst.CongestionHorizon()
			p, _, start := intervalLP(inst, h, firstFit(inst, releaseOrder(inst), fromRelease(inst, h), 4))
			cold, err := p.Solve()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			warm, err := p.SolveWith(lp.SolveOptions{Start: start})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if cold.Status != lp.Optimal || warm.Status != lp.Optimal || math.Abs(warm.Obj-cold.Obj) > 1e-9 {
				t.Fatalf("%s: interval LP crash-started (%v, %v), cold (%v, %v)", name, warm.Status, warm.Obj, cold.Status, cold.Obj)
			}
			if warm.Stats.StartAtUpper == inst.N() {
				intervalWhole++
				if warm.Stats.Phase1Pivots != 0 {
					t.Fatalf("%s: interval LP: every flow placed, yet %d phase-1 pivots", name, warm.Stats.Phase1Pivots)
				}
			}
			art, err := SolveART(inst, 1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if math.Abs(art.LPBound-cold.Obj) > 1e-9 || art.ForcedFixes != 0 {
				t.Fatalf("%s: SolveART LP bound %v with %d forced fixes, cold interval LP %v", name, art.LPBound, art.ForcedFixes, cold.Obj)
			}
			if _, err := verify.CheckScaled(inst, art.Schedule, 2); err != nil {
				t.Fatalf("%s: SolveART schedule at 2x capacity: %v", name, err)
			}
		}

		// LP (19)-(21): same rho, and the same answer on the windows
		// around it.
		rho, err := MRTLowerBound(inst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := coldRho(t, inst); rho != want {
			t.Fatalf("%s: crash-started rho %d, cold %d", name, rho, want)
		}
		mrt, err := SolveMRT(inst)
		if err != nil || mrt.Rho != rho {
			t.Fatalf("%s: SolveMRT rho %v, error %v; MRTLowerBound %d", name, mrt, err, rho)
		}
		if _, err := verify.CheckAugmented(inst, mrt.Schedule, inc); err != nil || mrt.Schedule.MaxResponse(inst) > rho {
			t.Fatalf("%s: SolveMRT schedule: %v, max response %d, rho %d", name, err, mrt.Schedule.MaxResponse(inst), rho)
		}
		// Each LP of the search is counted once: the one at rho in LP — none
		// where first fit places every flow, and then the schedule is the
		// rounding of the LP's start — the others (none when the volume bound
		// is rho already) in SearchLP.
		win := ResponseWindows(inst, rho)
		placed := firstFit(inst, releaseOrder(inst), win, 1)
		m := timeConstrainedLP(inst, win, placed)
		atRho, err := m.solve()
		if err != nil || atRho.Status != lp.Optimal {
			t.Fatalf("%s: LP at rho: %v, %v", name, atRho, err)
		}
		if placedAll(placed) {
			fitAtRho++
			want, err := roundWindowLP(inst, m, atRho)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if mrt.LP != (lp.Stats{}) || mrt.LPIterations != 0 || !slices.Equal(mrt.Schedule.Round, want.Schedule.Round) {
				t.Fatalf("%s: first fit places every flow at rho, yet SolveMRT reports %+v and schedule %v; the rounded LP gives %v",
					name, mrt.LP, mrt.Schedule.Round, want.Schedule.Round)
			}
		} else if mrt.LP != atRho.Stats || mrt.LPIterations != atRho.Iterations {
			t.Fatalf("%s: SolveMRT reports %+v for the solve at rho, which is %+v", name, mrt.LP, atRho.Stats)
		}
		if first := max(TrivialMRTLowerBound(inst), 1); (first == rho) != (mrt.SearchLP == lp.Stats{}) {
			t.Fatalf("%s: search from %d to rho %d reports %+v for its other LPs", name, first, rho, mrt.SearchLP)
		} else if first < rho {
			searched++
		}
		deadline := make([]int, inst.N())
		for f, e := range inst.Flows {
			deadline[f] = e.Release + rng.Intn(2*rho)
		}
		irregular, err := DeadlineWindows(inst, deadline)
		if err != nil {
			t.Fatal(err)
		}
		for f := range irregular { // punch holes, keep at least the deadline
			kept := irregular[f][:0]
			for _, r := range irregular[f] {
				if r == deadline[f] || rng.Intn(4) > 0 {
					kept = append(kept, r)
				}
			}
			irregular[f] = kept
		}
		families := []Windows{ResponseWindows(inst, rho), ResponseWindows(inst, rho+1), irregular}
		if rho > 1 {
			families = append(families, ResponseWindows(inst, rho-1))
		}
		for k, win := range families {
			m := timeConstrainedLP(inst, win, firstFit(inst, deadlineOrder(win), win, 1))
			cold, err := m.p.Solve()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			warm, err := m.solve()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("%s windows %d: crash-started %v, cold %v", name, k, warm.Status, cold.Status)
			}
			if warm.Stats.StartAtUpper == inst.N() {
				wholeStarts++
				if warm.Status != lp.Optimal || warm.Iterations != 0 {
					t.Fatalf("%s windows %d: every flow placed, yet status %v after %d pivots", name, k, warm.Status, warm.Iterations)
				}
			}
			res, err := SolveTimeConstrained(inst, win)
			if cold.Status == lp.Infeasible {
				if !errors.Is(err, ErrInfeasible) {
					t.Fatalf("%s windows %d: cold LP infeasible, SolveTimeConstrained returned %v", name, k, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s windows %d: %v", name, k, err)
			}
			if _, err := verify.CheckAugmented(inst, res.Schedule, inc); err != nil {
				t.Fatalf("%s windows %d: %v", name, k, err)
			}
			for f, r := range res.Schedule.Round {
				if !slices.Contains(win[f], r) {
					t.Fatalf("%s windows %d: flow %d at round %d outside its window %v", name, k, f, r, win[f])
				}
			}
		}
	}
	if wholeStarts == 0 || intervalWhole == 0 || searched == 0 || restricted == 0 || fitAtRho == 0 {
		t.Errorf("%d LPs and %d interval LPs placed whole by first fit, %d searches past the volume bound, %d bounds solved short of the congestion horizon, %d rho answered by first fit: a path went untested",
			wholeStarts, intervalWhole, searched, restricted, fitAtRho)
	}
}
