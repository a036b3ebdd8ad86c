package lp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"flowsched/internal/flownet"
)

// NewProblem returns a problem with numVars variables, all with zero cost
// and bounds [0, +Inf).
func NewProblem(numVars int) *Problem {
	p := new(Problem)
	p.Reset(numVars, 0, 0)
	return p
}

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("solve error: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if err := p.CheckFeasible(sol.X, 1e-6); err != nil {
		t.Fatalf("solution infeasible: %v", err)
	}
	return sol
}

func TestSimpleLE(t *testing.T) {
	// min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2  => x=2... check:
	// optimum at (2,2) or (3,1): obj(2,2) = -6, obj(3,1) = -5 => (2,2).
	p := NewProblem(2)
	p.SetCost(0, -1)
	p.SetCost(1, -2)
	p.AddRow([]int{0, 1}, []float64{1, 1}, LE, 4)
	p.AddRow([]int{0}, []float64{1}, LE, 3)
	p.AddRow([]int{1}, []float64{1}, LE, 2)
	sol := solveOK(t, p)
	if math.Abs(sol.Obj+6) > 1e-8 {
		t.Fatalf("obj = %v, want -6", sol.Obj)
	}
}

func TestEqualityRow(t *testing.T) {
	// min x + y s.t. x + y = 5, x <= 2 => obj 5 with x<=2.
	p := NewProblem(2)
	p.SetCost(0, 1)
	p.SetCost(1, 1)
	p.AddRow([]int{0, 1}, []float64{1, 1}, EQ, 5)
	p.AddRow([]int{0}, []float64{1}, LE, 2)
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-5) > 1e-8 {
		t.Fatalf("obj = %v, want 5", sol.Obj)
	}
}

func TestGERow(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x - y >= -1 => optimum x=1.5,y=2.5
	// obj=10.5; check: minimize, push y down... vertices: (4,0) obj 8;
	// intersection x+y=4,y-x=1 -> (1.5,2.5) obj 10.5. So best is (4,0): 8.
	p := NewProblem(2)
	p.SetCost(0, 2)
	p.SetCost(1, 3)
	p.AddRow([]int{0, 1}, []float64{1, 1}, GE, 4)
	p.AddRow([]int{0, 1}, []float64{1, -1}, GE, -1)
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-8) > 1e-8 {
		t.Fatalf("obj = %v, want 8", sol.Obj)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.AddRow([]int{0}, []float64{1}, GE, 2)
	p.AddRow([]int{0}, []float64{1}, LE, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleBounds(t *testing.T) {
	p := NewProblem(1)
	p.SetBounds(0, 3, 2)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(2)
	p.SetCost(0, -1)
	p.AddRow([]int{0, 1}, []float64{1, -1}, LE, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestUnconstrainedCases(t *testing.T) {
	p := NewProblem(2)
	p.SetCost(0, 5)
	p.SetCost(1, -2)
	p.SetBounds(1, 0, 7)
	sol := solveOK(t, p)
	if math.Abs(sol.Obj+14) > 1e-9 {
		t.Fatalf("obj = %v, want -14", sol.Obj)
	}

	q := NewProblem(1)
	q.SetCost(0, -1) // unbounded above
	s2, err := q.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s2.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s2.Status)
	}
}

func TestFreeVariableRejected(t *testing.T) {
	p := NewProblem(1)
	p.SetBounds(0, math.Inf(-1), Inf)
	p.AddRow([]int{0}, []float64{1}, LE, 1)
	if _, err := p.Solve(); err == nil {
		t.Fatal("free variable accepted")
	}
}

func TestUpperBoundedVariables(t *testing.T) {
	// Fractional knapsack: max 4a + 3b + 2c with a+b+c <= 2, each in [0,1].
	p := NewProblem(3)
	p.SetCost(0, -4)
	p.SetCost(1, -3)
	p.SetCost(2, -2)
	for j := 0; j < 3; j++ {
		p.SetBounds(j, 0, 1)
	}
	p.AddRow([]int{0, 1, 2}, []float64{1, 1, 1}, LE, 2)
	sol := solveOK(t, p)
	if math.Abs(sol.Obj+7) > 1e-8 {
		t.Fatalf("obj = %v, want -7", sol.Obj)
	}
}

func TestNegativeLowerBound(t *testing.T) {
	// min x with x >= -5 via bounds and x + y >= -2, y in [0,1].
	p := NewProblem(2)
	p.SetCost(0, 1)
	p.SetBounds(0, -5, Inf)
	p.SetBounds(1, 0, 1)
	p.AddRow([]int{0, 1}, []float64{1, 1}, GE, -2)
	sol := solveOK(t, p)
	if math.Abs(sol.Obj+3) > 1e-8 {
		t.Fatalf("obj = %v, want -3 (x=-3,y=1)", sol.Obj)
	}
}

func TestDegenerateAssignmentLP(t *testing.T) {
	// 3x3 assignment polytope: min cost matches Hungarian-style optimum 5
	// (same matrix as the matching package test).
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	n := 3
	p := NewProblem(n * n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p.SetCost(i*n+j, cost[i][j])
		}
	}
	for i := 0; i < n; i++ {
		idx := make([]int, n)
		val := make([]float64, n)
		for j := 0; j < n; j++ {
			idx[j] = i*n + j
			val[j] = 1
		}
		p.AddRow(idx, val, EQ, 1)
	}
	for j := 0; j < n; j++ {
		idx := make([]int, n)
		val := make([]float64, n)
		for i := 0; i < n; i++ {
			idx[i] = i*n + j
			val[i] = 1
		}
		p.AddRow(idx, val, EQ, 1)
	}
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-5) > 1e-7 {
		t.Fatalf("obj = %v, want 5", sol.Obj)
	}
}

// Property: LP optimum of random transportation problems equals the exact
// min-cost-flow optimum (integrality of the transportation polytope). This
// cross-validates the simplex against the independent flownet solver.
func TestQuickTransportationMatchesMinCostFlow(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nS := 1 + rng.Intn(4)
		nD := 1 + rng.Intn(4)
		supply := make([]int, nS)
		demand := make([]int, nD)
		total := 0
		for i := range supply {
			supply[i] = 1 + rng.Intn(6)
			total += supply[i]
		}
		// Spread total over demands.
		rem := total
		for j := 0; j < nD-1; j++ {
			d := rem / (nD - j)
			demand[j] = d
			rem -= d
		}
		demand[nD-1] = rem
		cost := make([][]int, nS)
		for i := range cost {
			cost[i] = make([]int, nD)
			for j := range cost[i] {
				cost[i][j] = rng.Intn(10)
			}
		}

		// LP formulation.
		p := NewProblem(nS * nD)
		for i := 0; i < nS; i++ {
			for j := 0; j < nD; j++ {
				p.SetCost(i*nD+j, float64(cost[i][j]))
			}
		}
		for i := 0; i < nS; i++ {
			idx := make([]int, nD)
			val := make([]float64, nD)
			for j := 0; j < nD; j++ {
				idx[j] = i*nD + j
				val[j] = 1
			}
			p.AddRow(idx, val, EQ, float64(supply[i]))
		}
		for j := 0; j < nD; j++ {
			idx := make([]int, nS)
			val := make([]float64, nS)
			for i := 0; i < nS; i++ {
				idx[i] = i*nD + j
				val[i] = 1
			}
			p.AddRow(idx, val, EQ, float64(demand[j]))
		}
		sol, err := p.Solve()
		if err != nil || sol.Status != Optimal {
			return false
		}
		if p.CheckFeasible(sol.X, 1e-6) != nil {
			return false
		}

		// Min-cost flow reference.
		g := flownet.New(nS + nD + 2)
		s, tk := nS+nD, nS+nD+1
		for i := 0; i < nS; i++ {
			g.AddEdge(s, i, supply[i], 0)
		}
		for j := 0; j < nD; j++ {
			g.AddEdge(nS+j, tk, demand[j], 0)
		}
		for i := 0; i < nS; i++ {
			for j := 0; j < nD; j++ {
				g.AddEdge(i, nS+j, total, cost[i][j])
			}
		}
		flow, mcost := g.MinCostFlow(s, tk, total)
		if flow != total {
			return false
		}
		return math.Abs(sol.Obj-float64(mcost)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: on random box-constrained LPs with feasible interior points the
// solver returns optimal solutions that are at least as good as a cloud of
// random feasible points.
func TestQuickOptimumBeatsRandomFeasiblePoints(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		mRows := rng.Intn(5)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.SetCost(j, float64(rng.Intn(11)-5))
			p.SetBounds(j, 0, float64(1+rng.Intn(5)))
		}
		// Random feasible anchor point in the box.
		anchor := make([]float64, n)
		for j := range anchor {
			anchor[j] = rng.Float64() * p.upper[j]
		}
		for r := 0; r < mRows; r++ {
			idx := []int{}
			val := []float64{}
			act := 0.0
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					c := float64(rng.Intn(7) - 3)
					idx = append(idx, j)
					val = append(val, c)
					act += c * anchor[j]
				}
			}
			if len(idx) == 0 {
				continue
			}
			// Make the anchor feasible for the row.
			switch rng.Intn(3) {
			case 0:
				p.AddRow(idx, val, LE, act+rng.Float64())
			case 1:
				p.AddRow(idx, val, GE, act-rng.Float64())
			default:
				p.AddRow(idx, val, EQ, act)
			}
		}
		sol, err := p.Solve()
		if err != nil {
			return false
		}
		if sol.Status != Optimal {
			return false // feasible by construction; bounded by box
		}
		if p.CheckFeasible(sol.X, 1e-6) != nil {
			return false
		}
		if sol.Obj > p.Objective(anchor)+1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The solution must be basic: the number of variables strictly inside
// their bounds is at most the number of rows.
func TestSolutionIsBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 30
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetCost(j, rng.Float64())
		p.SetBounds(j, 0, 1)
	}
	for r := 0; r < 5; r++ {
		idx := make([]int, n)
		val := make([]float64, n)
		for j := 0; j < n; j++ {
			idx[j] = j
			val[j] = float64(1 + rng.Intn(3))
		}
		p.AddRow(idx, val, GE, float64(n/2))
	}
	sol := solveOK(t, p)
	interior := 0
	for j := 0; j < n; j++ {
		if sol.X[j] > 1e-7 && sol.X[j] < 1-1e-7 {
			interior++
		}
	}
	if interior > p.NumRows() {
		t.Fatalf("%d interior variables > %d rows: not a basic solution", interior, p.NumRows())
	}
}

func TestSenseAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Fatal("sense strings wrong")
	}
	names := []string{Optimal.String(), Infeasible.String(), Unbounded.String(), IterLimit.String()}
	sort.Strings(names)
	if len(names) != 4 {
		t.Fatal("status strings wrong")
	}
}

func TestObjectiveAndRowActivity(t *testing.T) {
	p := NewProblem(2)
	p.SetCost(0, 2)
	p.SetCost(1, -1)
	i := p.AddRow([]int{0, 1}, []float64{3, 4}, LE, 100)
	x := []float64{1, 2}
	if got := p.Objective(x); got != 0 {
		t.Fatalf("objective = %v", got)
	}
	if got := p.RowActivity(x, i); got != 11 {
		t.Fatalf("activity = %v", got)
	}
}
