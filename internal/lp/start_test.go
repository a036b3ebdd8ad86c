package lp

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// responseLP builds an LP of the shape of the paper's relaxation (1)-(4) on
// a unit ports x ports switch — a variable per flow and round from its
// release to the horizon costing the response time, a covering row per
// flow, a capacity row per port and round — together with the point a
// first-fit pass in release order gives: a capacity-respecting 0/1
// schedule, so a feasible point of the LP with every flow's variable at its
// upper bound.
func responseLP(seed int64, ports, rounds, flows int) (*Problem, []float64) {
	rng := rand.New(rand.NewSource(seed))
	type flow struct{ in, out, release int }
	fl := make([]flow, flows)
	load := make([]int, 2*ports)
	for f := range fl {
		fl[f] = flow{rng.Intn(ports), ports + rng.Intn(ports), rng.Intn(rounds)}
		load[fl[f].in]++
		load[fl[f].out]++
	}
	slices.SortStableFunc(fl, func(a, b flow) int { return a.release - b.release })
	horizon := rounds + slices.Max(load) + 1
	off := make([]int, flows+1)
	for f, e := range fl {
		off[f+1] = off[f] + horizon - e.release
	}
	p := NewProblem(off[flows])
	capRows := make([][]int, 2*ports*horizon)
	used := make([]bool, 2*ports*horizon)
	start := make([]float64, off[flows])
	for f, e := range fl {
		var idx []int
		var val []float64
		placed := false
		for t := e.release; t < horizon; t++ {
			j := off[f] + t - e.release
			p.SetCost(j, float64(t-e.release)+0.5)
			p.SetBounds(j, 0, 1)
			idx, val = append(idx, j), append(val, 1)
			a, b := e.in*horizon+t, e.out*horizon+t
			capRows[a], capRows[b] = append(capRows[a], j), append(capRows[b], j)
			if !placed && !used[a] && !used[b] {
				used[a], used[b], placed = true, true, true
				start[j] = 1
			}
		}
		p.AddRow(idx, val, GE, 1)
	}
	for _, idx := range capRows {
		if len(idx) > 0 {
			p.AddRow(idx, slices.Repeat([]float64{1}, len(idx)), LE, 1)
		}
	}
	return p, start
}

// TestStartAtFeasiblePointSkipsPhase1: a start that satisfies every row
// takes no artificial column and no phase-1 pivot, and reaches the cold
// solve's optimum in fewer pivots.
func TestStartAtFeasiblePointSkipsPhase1(t *testing.T) {
	p, start := responseLP(3, 6, 6, 40)
	cold := solveOK(t, p)
	warm, err := p.SolveWith(SolveOptions{Start: start})
	if err != nil || warm.Status != Optimal {
		t.Fatalf("crash-started solve: %+v, %v", warm, err)
	}
	if warm.Stats.Phase1Pivots != 0 || warm.Stats.StartAtUpper != 40 {
		t.Errorf("crash-started stats %+v, want no phase-1 pivots and 40 variables started at their upper bound", warm.Stats)
	}
	if cold.Stats.Phase1Pivots == 0 || cold.Stats.StartAtUpper != 0 || warm.Iterations >= cold.Iterations {
		t.Errorf("cold solve %+v does not pay for a phase 1 the crash start (%d pivots) saves", cold.Stats, warm.Iterations)
	}
	if math.Abs(warm.Obj-cold.Obj) > 1e-9 {
		t.Errorf("crash-started optimum %v, cold %v", warm.Obj, cold.Obj)
	}
	if !dualIdentityHolds(p, warm) {
		t.Error("crash-started solve fails the dual identity")
	}
}

// TestStartReadsOnlyUpperBounds: entries that are not a finite upper bound
// are ignored, a partial start gets artificials only where it misses a row,
// and a wrong-length start is an error.
func TestStartReadsOnlyUpperBounds(t *testing.T) {
	p, start := responseLP(3, 6, 6, 40)
	nilStart := solveOK(t, p)
	junk := make([]float64, len(start))
	for j := range junk {
		junk[j] = 0.5 - float64(j%3) // 0.5, -0.5, -1.5: never a bound
	}
	sol, err := p.SolveWith(SolveOptions{Start: junk})
	if err != nil || sol.Iterations != nilStart.Iterations || sol.Obj != nilStart.Obj || sol.Stats != nilStart.Stats {
		t.Errorf("a start that names no upper bound: %+v, %v; want the nil-start solve %+v", sol, err, nilStart)
	}

	half := slices.Clone(start)
	dropped := 0
	for j, v := range half {
		if v == 1 && dropped < 20 {
			half[j] = 0
			dropped++
		}
	}
	part, err := p.SolveWith(SolveOptions{Start: half})
	if err != nil || part.Status != Optimal || math.Abs(part.Obj-nilStart.Obj) > 1e-9 {
		t.Fatalf("partial start: %+v, %v", part, err)
	}
	if part.Stats.Phase1Pivots == 0 || part.Stats.Phase1Pivots >= nilStart.Stats.Phase1Pivots {
		t.Errorf("partial start spent %d phase-1 pivots, the cold solve %d", part.Stats.Phase1Pivots, nilStart.Stats.Phase1Pivots)
	}
	if part.Stats.StartAtUpper != 20 || part.Stats.StartBasic != 20 {
		t.Errorf("partial start stats %+v, want the 20 flows it places at their upper bound and in the basis", part.Stats)
	}

	if _, err := p.SolveWith(SolveOptions{Start: start[:len(start)-1]}); err == nil || !strings.Contains(err.Error(), "Start has") {
		t.Errorf("short start: error %v", err)
	}
	free := NewProblem(1) // upper bound +Inf: a start entry of +Inf is not "at the bound"
	free.SetCost(0, 1)
	free.AddRow([]int{0}, []float64{1}, GE, 2)
	if sol, err := free.SolveWith(SolveOptions{Start: []float64{Inf}}); err != nil || sol.Status != Optimal || sol.X[0] != 2 || sol.Stats.StartAtUpper != 0 {
		t.Errorf("infinite start entry: %+v, %v", sol, err)
	}
}

// TestStallIsPerturbedNotCycled is the regression for the stall a 0/1
// starting vertex causes: every busy port-round of the first-fit point has
// its slack basic at a bound, and this instance's crash-started solve makes
// degenLimit degenerate pivots in a row without moving. Bland's rule sat
// there until the iteration limit; the perturbation must carry the solve to
// the cold solve's optimum, and what comes back must be a point of the true
// LP. (The instance this test first used, seed 1, no longer stalls: with its
// flows in the starting basis it reaches the optimum in 2,462 pivots and no
// perturbation. Seeds 2 to 6 of the same shape all still stall; 5 is the
// cheapest.)
func TestStallIsPerturbedNotCycled(t *testing.T) {
	p, start := responseLP(5, 12, 4, 200)
	cold := solveOK(t, p)
	warm, err := p.SolveWith(SolveOptions{Start: start})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || warm.Stats.Perturbations < 1 || warm.Stats.Phase1Pivots != 0 {
		t.Fatalf("crash-started solve: status %v, stats %+v; want optimal after at least one perturbation and no phase 1", warm.Status, warm.Stats)
	}
	if err := p.CheckFeasible(warm.X, 1e-7); err != nil {
		t.Errorf("the returned point is not feasible for the true bounds: %v", err)
	}
	if math.Abs(warm.Obj-cold.Obj) > 1e-9 {
		t.Errorf("crash-started optimum %v, cold %v", warm.Obj, cold.Obj)
	}
	if !dualIdentityHolds(p, warm) || !dualIdentityHolds(p, cold) {
		t.Error("dual identity fails")
	}
	if cold.Stats.Perturbations != 0 {
		t.Logf("the cold solve stalled too: %+v", cold.Stats)
	}
}

// TestSettleRepairsARejectedBasis drives the path a stall almost never
// takes: the perturbed optimum's basis is infeasible for the true bounds.
// The perturbation is planted by hand (x's upper bound 0.6 widened to 2),
// so phase 2 ends with x basic at 1; settle must swap it for an artificial
// and the solve finish at the true optimum (0.6, 0.4) through a phase 1.
func TestSettleRepairsARejectedBasis(t *testing.T) {
	p := NewProblem(2)
	p.SetCost(0, -2)
	p.SetCost(1, -1)
	p.SetBounds(0, 0, 0.6)
	p.SetBounds(1, 0, 1)
	p.AddRow([]int{0, 1}, []float64{1, 1}, LE, 1)
	s := new(simplex)
	if sol, err := s.load(p, SolveOptions{}); err != nil || sol != nil {
		t.Fatalf("load: %+v, %v", sol, err)
	}
	s.lower0, s.upper0 = slices.Clone(s.lower), slices.Clone(s.upper)
	s.perturbed = true
	s.upper[0] = 2
	sol := new(Solution)
	if err := s.solve(p, sol); err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %+v, %v", sol, err)
	}
	if math.Abs(sol.X[0]-0.6) > 1e-9 || math.Abs(sol.X[1]-0.4) > 1e-9 || math.Abs(sol.Obj+1.6) > 1e-9 {
		t.Errorf("x = %v, objective %v; want (0.6, 0.4), -1.6", sol.X, sol.Obj)
	}
	if sol.Stats.Phase1Pivots == 0 {
		t.Errorf("stats %+v: the rejected basis was not repaired through a phase 1", sol.Stats)
	}
	if !dualIdentityHolds(p, sol) {
		t.Error("dual identity fails")
	}
}

// fuzzLP decodes a small LP and a 0/upper starting pattern from fuzz input:
// up to 6 variables with costs in [-4, 4] and upper bounds in [1, 4] (one in
// eight has none), up to 4 rows with coefficients in [-3, 3] of any sense.
// Input shorter than its header decodes to nil.
func fuzzLP(data []byte) (*Problem, []float64) {
	if len(data) < 3 {
		return nil, nil
	}
	n, m, pattern := 1+int(data[0])%6, int(data[1])%5, data[2]
	data = data[3:]
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	p := NewProblem(n)
	start := make([]float64, n)
	for j := 0; j < n; j++ {
		p.SetCost(j, float64(next()%9-4))
		if b := next(); b%8 != 0 { // one variable in eight has no upper bound
			p.SetBounds(j, 0, float64(1+b%4))
		} else if p.cost[j] < 0 {
			p.SetCost(j, -p.cost[j]) // keep the LP bounded
		}
		if pattern>>j&1 == 1 {
			start[j] = p.upper[j]
		}
	}
	for i := 0; i < m; i++ {
		var idx []int
		var val []float64
		for j := 0; j < n; j++ {
			if c := next()%7 - 3; c != 0 {
				idx, val = append(idx, j), append(val, float64(c))
			}
		}
		p.AddRow(idx, val, Sense(next()%3), float64(next()%11-3))
	}
	return p, start
}

// The last two seeds of FuzzSolveStart: two variables started at their upper
// bound 2 under the rows x0 >= 2, x1 >= 2, which the start meets with
// equality, so both enter the starting basis; and under x0 <= 5, x1 <= 5,
// whose slacks are interior, so neither does.
var (
	fuzzSeedAllBasic  = []byte{1, 2, 3, 5, 1, 6, 1, 4, 3, 1, 5, 3, 4, 1, 5}
	fuzzSeedNoneBasic = []byte{1, 2, 3, 3, 1, 3, 1, 4, 3, 0, 8, 3, 4, 0, 8}
)

// TestFuzzSeedsCoverTheCrashBasis: the fuzz corpus holds a start that takes
// every row it could and one that takes none.
func TestFuzzSeedsCoverTheCrashBasis(t *testing.T) {
	for _, c := range []struct {
		data  []byte
		basic int
	}{{fuzzSeedAllBasic, 2}, {fuzzSeedNoneBasic, 0}} {
		p, start := fuzzLP(c.data)
		sol, err := p.SolveWith(SolveOptions{Start: start})
		if err != nil || sol.Status != Optimal || sol.Stats.StartAtUpper != 2 || sol.Stats.StartBasic != c.basic {
			t.Errorf("seed %v: %+v, %v; want 2 variables started at their upper bound, %d of them basic", c.data, sol, err, c.basic)
		}
	}
}

// FuzzSolveStart: whatever 0/upper pattern a small LP is started from —
// whichever of the named variables the crash basis takes in — the status and
// the optimum are those of the cold solve, the point is feasible and the
// duals certify it; a start of the wrong length is an error, never a panic.
func FuzzSolveStart(f *testing.F) {
	f.Add([]byte{3, 2, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{5, 3, 0x15, 9, 9, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{1, 1, 1, 4, 4, 4, 4})
	f.Add([]byte{4, 4, 0xaa, 250, 3, 17, 99, 4, 8, 15, 16, 23, 42, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55})
	f.Add(fuzzSeedAllBasic)
	f.Add(fuzzSeedNoneBasic)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, start := fuzzLP(data)
		if p == nil {
			return
		}
		cold, err := p.Solve()
		if err != nil {
			t.Skipf("cold solve: %v", err)
		}
		warm, err := p.SolveWith(SolveOptions{Start: start})
		if err != nil {
			t.Fatalf("started solve: %v (cold: %+v)", err, cold)
		}
		if warm.Status != cold.Status {
			t.Fatalf("started solve %v, cold %v", warm.Status, cold.Status)
		}
		if warm.Stats.StartBasic > warm.Stats.StartAtUpper {
			t.Fatalf("stats %+v: more variables in the starting basis than at their upper bound", warm.Stats)
		}
		if cold.Status == Optimal {
			if math.Abs(warm.Obj-cold.Obj) > 1e-9*(1+math.Abs(cold.Obj)) {
				t.Fatalf("started optimum %v, cold %v", warm.Obj, cold.Obj)
			}
			if err := p.CheckFeasible(warm.X, 1e-6); err != nil {
				t.Fatal(err)
			}
			if p.NumRows() > 0 && !dualIdentityHolds(p, warm) { // no rows, no duals
				t.Fatalf("started solve fails the dual identity: %+v", warm)
			}
		}
		if _, err := p.SolveWith(SolveOptions{Start: append(start, 0)}); err == nil {
			t.Fatal("a start one entry too long was accepted")
		}
	})
}
