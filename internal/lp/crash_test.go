package lp

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestCrashBasisIsTriangular holds the rule that keeps a starting basis
// nonsingular, on hand-built LPs whose start names every variable: a row is
// taken once, only where the point meets it with equality and on a
// coefficient the factorisation can pivot on, and never by a variable with
// an entry in a row taken before.
func TestCrashBasisIsTriangular(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() *Problem
		basis []int // column basic per row, as load leaves it
	}{
		// x0 takes row 0. x1's column equals x0's: it has an entry in row 0
		// and is skipped — in row 1 beside x0 it would make the basis
		// singular. x2 has none, and takes row 1; row 2 keeps its slack.
		{"duplicate column", func() *Problem {
			p := NewProblem(3)
			p.AddRow([]int{0, 1}, []float64{1, 1}, EQ, 2)
			p.AddRow([]int{0, 1, 2}, []float64{1, 1, 1}, EQ, 3)
			p.AddRow([]int{2}, []float64{1}, LE, 1)
			return p
		}, []int{0, 2, 5}},
		// Satisfied, but not with equality: the slack is interior and stays.
		{"interior slack", func() *Problem {
			p := NewProblem(1)
			p.AddRow([]int{0}, []float64{1}, LE, 2)
			return p
		}, []int{1}},
		// Met with equality on a coefficient below pivotTol: not a pivot.
		{"tiny coefficient", func() *Problem {
			p := NewProblem(1)
			p.AddRow([]int{0}, []float64{1e-12}, EQ, 1e-12)
			return p
		}, []int{1}},
		// Row 0 is violated and gets an artificial (column 4); x0 takes row
		// 1, the first it meets with equality, and goes on to leave it.
		{"artificial row", func() *Problem {
			p := NewProblem(2)
			p.AddRow([]int{0, 1}, []float64{1, 1}, LE, 1)
			p.AddRow([]int{0}, []float64{1}, GE, 1)
			return p
		}, []int{4, 0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := c.build()
			start := make([]float64, p.n)
			for j := range start {
				p.SetCost(j, float64(j+1))
				p.SetBounds(j, 0, 1)
				start[j] = 1
			}
			s := new(simplex)
			if sol, err := s.load(p, SolveOptions{Start: start}); err != nil || sol != nil {
				t.Fatalf("load: %+v, %v; want a factored starting basis", sol, err)
			}
			basic := 0
			for i, j := range s.basis {
				if s.pos[j] != i {
					t.Errorf("basis[%d] = %d, pos[%d] = %d", i, j, j, s.pos[j])
				}
				if j < p.n {
					basic++
				}
			}
			if !slices.Equal(s.basis, c.basis) || s.startBasic != basic || s.startAtUpper != p.n {
				t.Errorf("starting basis %v with %d of %d started variables in it, want %v", s.basis, s.startBasic, s.startAtUpper, c.basis)
			}
			warm := new(Solution)
			if err := s.solve(p, warm); err != nil {
				t.Fatal(err)
			}
			cold, err := p.Solve()
			if err != nil || warm.Status != cold.Status {
				t.Fatalf("started %v, cold %v (%v)", warm.Status, cold.Status, err)
			}
			if cold.Status == Optimal && (math.Abs(warm.Obj-cold.Obj) > 1e-9 || !dualIdentityHolds(p, warm)) {
				t.Errorf("started optimum %v, cold %v", warm.Obj, cold.Obj)
			}
		})
	}
}

// TestCrashBasisOfAPartialStart: a start that places half the flows takes a
// basis place exactly on the rows those flows meet with equality — here
// their covering rows — and leaves an artificial on each row it misses.
func TestCrashBasisOfAPartialStart(t *testing.T) {
	p, start := responseLP(3, 6, 6, 40)
	placed := 0
	for j, v := range start {
		if v == 1 {
			if placed++; placed%2 == 0 {
				start[j] = 0
			}
		}
	}
	s := new(simplex)
	if sol, err := s.load(p, SolveOptions{Start: start}); err != nil || sol != nil {
		t.Fatalf("load: %+v, %v", sol, err)
	}
	m := len(p.rows)
	if s.startAtUpper != 20 || s.startBasic != 20 || s.n-(p.n+m) != 20 {
		t.Fatalf("%d started at their upper bound, %d basic, %d artificials; want 20 of each", s.startAtUpper, s.startBasic, s.n-(p.n+m))
	}
	for i, j := range s.basis {
		activity := p.RowActivity(s.x[:p.n], i)
		switch {
		case j < p.n && (start[j] != 1 || activity != p.rows[i].rhs):
			t.Errorf("row %d: variable %d (start %v) is basic where the activity is %v and the right-hand side %v", i, j, start[j], activity, p.rows[i].rhs)
		case j >= p.n+m && activity >= p.rows[i].rhs:
			t.Errorf("row %d (covering, activity %v) holds an artificial", i, activity)
		}
	}
	warm := new(Solution)
	if err := s.solve(p, warm); err != nil || warm.Status != Optimal {
		t.Fatalf("solve: %+v, %v", warm, err)
	}
	if cold := solveOK(t, p); math.Abs(warm.Obj-cold.Obj) > 1e-9 || !dualIdentityHolds(p, warm) {
		t.Errorf("partial start's optimum %v, cold %v", warm.Obj, cold.Obj)
	}
}

// TestZeroObjectiveStartIsReturned: a point that satisfies every row of an
// LP with nothing to minimise comes back as it stands, with zero duals and
// without a pivot: its crash basis is already optimal.
func TestZeroObjectiveStartIsReturned(t *testing.T) {
	p, start := responseLP(3, 6, 6, 40)
	for j := 0; j < p.n; j++ {
		p.SetCost(j, 0)
	}
	sol, err := p.SolveWith(SolveOptions{Start: start})
	if err != nil || sol.Status != Optimal || sol.Iterations != 0 || sol.Stats.StartAtUpper != 40 || sol.Stats.Refactors != 1 {
		t.Fatalf("started solve: %+v, %v; want no pivot from a start of 40 and one factorisation", sol, err)
	}
	if !slices.Equal(sol.X, start) || sol.Obj != 0 || len(sol.Dual) != len(p.rows) || slices.ContainsFunc(sol.Dual, func(y float64) bool { return y != 0 }) {
		t.Errorf("X, objective %v or duals differ from the start, 0 and 0", sol.Obj)
	}
	// A start that misses a row is not the answer: it is solved.
	start[slices.Index(start, 1)] = 0
	if sol, err := p.SolveWith(SolveOptions{Start: start}); err != nil || sol.Status != Optimal || sol.Stats.Phase1Pivots == 0 || p.CheckFeasible(sol.X, 1e-7) != nil {
		t.Errorf("start missing a row: %+v, %v", sol, err)
	}
}

// TestUnmovedBasisIsNotRefactored: the final accuracy pass is skipped when
// nothing has moved since the last factorisation. A start that is already
// optimal factors once; a solve that ends on a bound flip — which moves x
// without an eta — still gets its pass.
func TestUnmovedBasisIsNotRefactored(t *testing.T) {
	p, start := fuzzLP(fuzzSeedAllBasic)
	sol, err := p.SolveWith(SolveOptions{Start: start})
	if err != nil || sol.Status != Optimal || sol.Iterations != 0 || sol.Stats.Refactors != 1 {
		t.Errorf("optimal start: %+v, %v; want no pivot and one factorisation", sol, err)
	}
	flip := NewProblem(1) // min -x, x in [0, 1], x <= 5: one flip and done
	flip.SetCost(0, -1)
	flip.SetBounds(0, 0, 1)
	flip.AddRow([]int{0}, []float64{1}, LE, 5)
	sol, err = flip.Solve()
	if err != nil || sol.Status != Optimal || sol.X[0] != 1 || sol.Stats.BoundFlips != 1 || sol.Stats.Refactors != 2 {
		t.Errorf("solve ending on a flip: %+v, %v; want x = 1 and a final factorisation", sol, err)
	}
}

// sameSolution reports whether two solves returned the same bits.
func sameSolution(a, b *Solution) bool {
	return a.Status == b.Status && a.Obj == b.Obj && a.Iterations == b.Iterations && a.Stats == b.Stats &&
		slices.Equal(a.X, b.X) && slices.Equal(a.Dual, b.Dual)
}

type hygieneSolve struct {
	name string
	run  func(*simplex)
}

// hygieneSolves returns solves that each leave a working state behind in a
// different condition: a much larger LP, an infeasible one, one cut off
// after three pivots, one that perturbed its bounds, and one with nothing to
// minimise whose start was the answer.
func hygieneSolves(t *testing.T) []hygieneSolve {
	big, bigStart := responseLP(7, 8, 5, 80)
	stall, stallStart := responseLP(6, 10, 3, 160)
	infeasible := NewProblem(2)
	infeasible.AddRow([]int{0, 1}, []float64{1, 1}, GE, 3)
	infeasible.SetBounds(0, 0, 1)
	infeasible.SetBounds(1, 0, 1)
	still, stillStart := responseLP(2, 4, 4, 12)
	for j := 0; j < still.n; j++ {
		still.SetCost(j, 0)
	}
	run := func(p *Problem, opt SolveOptions, ok func(*Solution) bool) func(*simplex) {
		return func(s *simplex) {
			t.Helper()
			if sol, err := s.run(p, opt); err != nil || !ok(sol) {
				t.Fatalf("preceding solve: %+v, %v", sol, err)
			}
		}
	}
	return []hygieneSolve{
		{"larger", run(big, SolveOptions{Start: bigStart}, func(sol *Solution) bool { return sol.Status == Optimal })},
		{"infeasible", run(infeasible, SolveOptions{}, func(sol *Solution) bool { return sol.Status == Infeasible })},
		{"iter limit", run(big, SolveOptions{MaxIters: 3}, func(sol *Solution) bool { return sol.Status == IterLimit })},
		{"perturbed", run(stall, SolveOptions{Start: stallStart}, func(sol *Solution) bool { return sol.Stats.Perturbations > 0 })},
		{"zero objective", run(still, SolveOptions{Start: stillStart}, func(sol *Solution) bool {
			return sol.Iterations == 0 && slices.Equal(sol.X, stillStart)
		})},
	}
}

// TestSolveIgnoresWhatTheWorkspaceHeld: the Solution of a fixed problem is
// the same, bit for bit, on a working state never used before and on one
// that has just been through any other kind of solve, cold and started, and
// through SolveWith, whatever the pool hands it.
func TestSolveIgnoresWhatTheWorkspaceHeld(t *testing.T) {
	p, start := responseLP(3, 6, 6, 40)
	for _, opt := range []SolveOptions{{}, {Start: start}} {
		want, err := new(simplex).run(p, opt)
		if err != nil || want.Status != Optimal {
			t.Fatalf("fresh solve: %+v, %v", want, err)
		}
		s := new(simplex) // one state through all of them
		for _, before := range hygieneSolves(t) {
			before.run(s)
			if got, err := s.run(p, opt); err != nil || !sameSolution(got, want) {
				t.Errorf("after a %s solve (start %v): %+v, %v; a fresh state gives %+v", before.name, opt.Start != nil, got, err, want)
			}
			if got, err := p.SolveWith(opt); err != nil || !sameSolution(got, want) {
				t.Errorf("SolveWith (start %v): %+v, %v; a fresh state gives %+v", opt.Start != nil, got, err, want)
			}
		}
	}
}

// TestConcurrentSolvesShareNothing: goroutines solving interleaved problems
// through the pool each get the answers a serial run gets (run it under
// -race).
func TestConcurrentSolvesShareNothing(t *testing.T) {
	type job struct {
		p    *Problem
		opt  SolveOptions
		want *Solution
	}
	var jobs []job
	for seed := int64(1); seed <= 6; seed++ {
		p, start := responseLP(seed, 3+int(seed), 4, 10+5*int(seed))
		jobs = append(jobs, job{p: p}, job{p: p, opt: SolveOptions{Start: start}}, job{p: p, opt: SolveOptions{MaxIters: 3}})
	}
	for i := range jobs {
		sol, err := jobs[i].p.SolveWith(jobs[i].opt)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i].want = sol
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < 60; k++ {
				j := jobs[rng.Intn(len(jobs))]
				if got, err := j.p.SolveWith(j.opt); err != nil || !sameSolution(got, j.want) {
					t.Errorf("goroutine %d, solve %d: %+v, %v; serially %+v", g, k, got, err, j.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
