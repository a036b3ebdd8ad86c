package lp

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// denseOf returns the row-major dense form of the basis matrix whose
// column at position p is cols[basis[p]].
func denseOf(cols []spCol, basis []int) []float64 {
	n := len(basis)
	a := make([]float64, n*n)
	for p, j := range basis {
		for k, r := range cols[j].ri {
			a[r*n+p] = cols[j].rv[k]
		}
	}
	return a
}

// schedulingBasis returns n columns shaped like a basis of the scheduling
// LPs: a unitShare of them unit columns (+-1 in a row of their own), the
// rest — the nucleus — a small integer in a row of their own plus one to
// three more small integers elsewhere.
func schedulingBasis(rng *rand.Rand, n int, unitShare float64) []spCol {
	small := []float64{1, 1, 1, -1, 2}
	own := rng.Perm(n)
	cols := make([]spCol, n)
	for p := range cols {
		c := spCol{ri: []int{own[p]}, rv: []float64{small[rng.Intn(len(small))]}}
		if rng.Float64() >= unitShare {
			for extra := 1 + rng.Intn(3); extra > 0; extra-- {
				r := rng.Intn(n)
				if !slices.Contains(c.ri, r) {
					c.ri = append(c.ri, r)
					c.rv = append(c.rv, small[rng.Intn(len(small))])
				}
			}
		} else if c.rv[0] == 2 {
			c.rv[0] = 1
		}
		cols[p] = c
	}
	return cols
}

func identityBasis(n int) []int {
	b := make([]int, n)
	for i := range b {
		b[i] = i
	}
	return b
}

// agree reports whether two solutions match to tol relative to their size.
func agree(got, want []float64, tol float64) bool {
	scale := 1.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if math.IsNaN(got[i]) || math.Abs(got[i]-want[i]) > tol*scale {
			return false
		}
	}
	return true
}

// checkAgainstDense factors the basis both ways and compares a solve and a
// transposed solve of a random right-hand side; it returns false when both
// kernels found the basis singular.
func checkAgainstDense(t *testing.T, rng *rand.Rand, cols []spCol, basis []int, tol float64) bool {
	t.Helper()
	n := len(basis)
	ref, refErr := factorizeDense(n, denseOf(cols, basis))
	var f luFactor
	err := f.factor(cols, basis)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("n=%d: sparse factor error %v, dense reference error %v", n, err, refErr)
	}
	if err != nil {
		if !errors.Is(err, ErrSingular) {
			t.Fatalf("n=%d: error %v does not wrap ErrSingular", n, err)
		}
		return false
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(rng.Intn(9) - 4)
	}
	got, want := append([]float64(nil), b...), append([]float64(nil), b...)
	f.solve(got)
	ref.solve(want)
	if !agree(got, want, tol) {
		t.Fatalf("n=%d: solve differs from the dense reference", n)
	}
	got, want = append(got[:0], b...), append(want[:0], b...)
	f.solveT(got)
	ref.solveT(want)
	if !agree(got, want, tol) {
		t.Fatalf("n=%d: solveT differs from the dense reference", n)
	}
	return true
}

func TestSparseLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 300}
	solved := 0
	for round := 0; round < 6; round++ {
		for _, n := range sizes {
			cols := schedulingBasis(rng, n, 0.70+0.25*rng.Float64())
			if checkAgainstDense(t, rng, cols, identityBasis(n), 1e-9) {
				solved++
			}
		}
	}
	if solved < 4*len(sizes) {
		t.Fatalf("only %d of %d random bases were nonsingular; the generator is off", solved, 6*len(sizes))
	}
}

func TestSparseLUSingularLikeDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 3, 8, 40, 150} {
		basis := identityBasis(n)
		// A column repeated at a second position.
		cols := schedulingBasis(rng, n, 0.8)
		cols[rng.Intn(n-1)+1] = cols[0]
		if checkAgainstDense(t, rng, cols, basis, 1e-9) {
			t.Fatalf("n=%d: repeated column accepted", n)
		}
		// An empty column.
		cols = schedulingBasis(rng, n, 0.8)
		cols[rng.Intn(n)] = spCol{}
		if checkAgainstDense(t, rng, cols, basis, 1e-9) {
			t.Fatalf("n=%d: empty column accepted", n)
		}
		// Two unit columns on one row (so another row is empty).
		cols = schedulingBasis(rng, n, 1)
		cols[1] = spCol{ri: cols[0].ri, rv: []float64{-1}}
		if checkAgainstDense(t, rng, cols, basis, 1e-9) {
			t.Fatalf("n=%d: two unit columns on one row accepted", n)
		}
		// A nucleus column that is a combination of two others.
		if n >= 8 {
			cols = schedulingBasis(rng, n, 0.5)
			sum := make(map[int]float64)
			for _, src := range []int{1, 2} {
				for k, r := range cols[src].ri {
					sum[r] += cols[src].rv[k]
				}
			}
			var c spCol
			for r := 0; r < n; r++ {
				if v := sum[r]; v != 0 {
					c.ri, c.rv = append(c.ri, r), append(c.rv, v)
				}
			}
			cols[0] = c
			if checkAgainstDense(t, rng, cols, basis, 1e-9) {
				t.Fatalf("n=%d: dependent column accepted", n)
			}
		}
	}
}

// TestEtaFileMatchesFreshFactor replaces basis columns one at a time the
// way a pivot does and checks after each of 63 updates that FTRAN and BTRAN
// through the eta file equal solves with a fresh factorisation of the
// updated basis.
func TestEtaFileMatchesFreshFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const m = 80
	cols := append(schedulingBasis(rng, m, 0.85), schedulingBasis(rng, m, 0)...)
	s := &simplex{m: m, cols: cols, basis: identityBasis(m)}
	if err := s.lu.factor(s.cols, s.basis); err != nil {
		t.Fatal(err)
	}
	s.etas.reset()
	w := make([]float64, m)
	for k := 1; k < refactorEvery; k++ {
		// Enter the next spare column where its image is largest.
		enter := m + k - 1
		clear(w)
		for i, r := range cols[enter].ri {
			w[r] = cols[enter].rv[i]
		}
		s.ftran(w)
		leave := 0
		for i := range w {
			if math.Abs(w[i]) > math.Abs(w[leave]) {
				leave = i
			}
		}
		if math.Abs(w[leave]) < 0.1 {
			t.Fatalf("update %d: no usable pivot", k)
		}
		s.etas.push(leave, w, nonzeros(make([]int, m), w))
		s.basis[leave] = enter
		if s.etas.len() != k {
			t.Fatalf("eta file holds %d updates after %d pushes", s.etas.len(), k)
		}

		var fresh luFactor
		if err := fresh.factor(s.cols, s.basis); err != nil {
			t.Fatalf("update %d: fresh factorisation: %v", k, err)
		}
		v := make([]float64, m)
		for i := range v {
			v[i] = float64(rng.Intn(9) - 4)
		}
		got, want := append([]float64(nil), v...), append([]float64(nil), v...)
		s.ftran(got)
		fresh.solve(want)
		if !agree(got, want, 1e-8) {
			t.Fatalf("update %d: FTRAN through the eta file differs from a fresh factorisation", k)
		}
		got, want = append(got[:0], v...), append(want[:0], v...)
		s.btran(got)
		fresh.solveT(want)
		if !agree(got, want, 1e-8) {
			t.Fatalf("update %d: BTRAN through the eta file differs from a fresh factorisation", k)
		}
	}
}

// matchingLP is a scheduling-shaped LP with an all-slack start (no phase
// 1): flows x rounds variables with random rewards, each flow served at
// most once, one capacity row per port and round.
func matchingLP(rng *rand.Rand, ports, rounds, flows int) *Problem {
	p := NewProblem(flows * rounds)
	rows := make([][]int, 2*ports*rounds+flows)
	for f := 0; f < flows; f++ {
		in, out := rng.Intn(ports), rng.Intn(ports)
		for t := 0; t < rounds; t++ {
			j := f*rounds + t
			p.SetCost(j, -1-rng.Float64())
			rows[in*rounds+t] = append(rows[in*rounds+t], j)
			rows[(ports+out)*rounds+t] = append(rows[(ports+out)*rounds+t], j)
			rows[2*ports*rounds+f] = append(rows[2*ports*rounds+f], j)
		}
	}
	for _, idx := range rows {
		val := make([]float64, len(idx))
		for i := range val {
			val[i] = 1
		}
		p.AddRow(idx, val, LE, 1)
	}
	return p
}

// TestPivotLoopAllocatesNothing single-steps a warmed solve: once the eta
// file and the factorisation have grown to their working size, an
// iteration — pricing, FTRAN, the nonzero list, ratio test, eta push, and
// every 64th a refactorisation — allocates nothing, and neither do the
// solves alone. Half the variables are capped at 1/2, so the measured
// iterations include bound flips. And a whole solve stands on the memory of
// the one before it: the second SolveWith of a problem allocates its
// Solution, X and Dual, nothing else.
func TestPivotLoopAllocatesNothing(t *testing.T) {
	p := matchingLP(rand.New(rand.NewSource(3)), 10, 8, 160)
	for j := 0; j < p.NumVars(); j += 2 {
		p.SetBounds(j, 0, 0.5)
	}
	s := new(simplex)
	start := func() {
		if sol, err := s.load(p, SolveOptions{}); err != nil || sol != nil {
			t.Fatalf("load: %+v, %v", sol, err)
		}
		s.cost = grow(s.cost, s.n)
		copy(s.cost, p.cost)
	}
	// One whole solve grows the state; the measured iterations are the
	// first ones of the next.
	start()
	if st, err := s.iterate(); err != nil || st != Optimal {
		t.Fatalf("warming solve: status %v, error %v", st, err)
	}
	start()
	step := func() {
		s.maxIters = s.iters + 1
		st, err := s.iterate()
		if err != nil || st != IterLimit {
			t.Fatalf("iteration %d: status %v, error %v; the LP is too small for this test", s.iters, st, err)
		}
	}
	if n := testing.AllocsPerRun(3*refactorEvery, step); n != 0 {
		t.Errorf("%v allocations per warmed iteration, want 0", n)
	}
	// load factored once; the rest are the measured iterations'.
	if refactors := s.refactors - 1; refactors < 2 || s.flips == 0 {
		t.Errorf("the measured iterations held %d refactorisations and %d bound flips, want at least 2 and 1", refactors, s.flips)
	}
	v := make([]float64, s.m)
	for name, f := range map[string]func([]float64){
		"solve": s.lu.solve, "solveT": s.lu.solveT, "ftran": s.ftran, "btran": s.btran,
	} {
		if n := testing.AllocsPerRun(10, func() {
			for i := range v {
				v[i] = float64(i % 3)
			}
			f(v)
		}); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}

	solve := func() {
		if sol, err := p.Solve(); err != nil || sol.Status != Optimal {
			t.Fatalf("solve: %+v, %v", sol, err)
		}
	}
	solve()
	if n := testing.AllocsPerRun(5, solve); n > 3 && !raceEnabled { // under -race a sync.Pool drops one Put in four
		t.Errorf("%v allocations in a repeated solve, want at most 3 (Solution, X, Dual)", n)
	}
}

// TestSolveIntoMatchesSolveWith: one Solution, solved into again and again
// across problems of different sizes and outcomes — larger, smaller,
// crash-started, infeasible, and without rows — holds what SolveWith returns
// for each, bit for bit, with X and Dual empty unless the status is Optimal;
// and once it has held a problem's size, solving that problem into it again
// allocates nothing.
func TestSolveIntoMatchesSolveWith(t *testing.T) {
	infeasible := NewProblem(1)
	infeasible.AddRow([]int{0}, []float64{1}, GE, 2)
	infeasible.AddRow([]int{0}, []float64{1}, LE, 1)
	rowless := NewProblem(3)
	rowless.SetCost(1, -1)
	rowless.SetBounds(1, 0, 2)
	started, start := responseLP(3, 4, 4, 20)
	for j := 0; j < started.NumVars(); j++ {
		started.SetCost(j, float64(j%7+1))
	}
	cases := []struct {
		name string
		p    *Problem
		opt  SolveOptions
	}{
		{"large", matchingLP(rand.New(rand.NewSource(3)), 10, 8, 160), SolveOptions{}},
		{"small", matchingLP(rand.New(rand.NewSource(4)), 3, 3, 12), SolveOptions{}},
		{"started", started, SolveOptions{Start: start}},
		{"infeasible", infeasible, SolveOptions{}},
		{"rowless", rowless, SolveOptions{}},
		{"large again", matchingLP(rand.New(rand.NewSource(3)), 10, 8, 160), SolveOptions{}},
	}
	var into Solution
	for _, c := range cases {
		want, err := c.p.SolveWith(c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := c.p.SolveInto(&into, c.opt); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !sameBits(&into, want) {
			t.Errorf("%s: SolveInto %+v, SolveWith %+v", c.name, into, *want)
		}
		if into.Status != Optimal && (len(into.X) != 0 || len(into.Dual) != 0) {
			t.Errorf("%s: status %v with %d values and %d duals", c.name, into.Status, len(into.X), len(into.Dual))
		}
	}
	if raceEnabled {
		return // under -race a sync.Pool drops one Put in four
	}
	p := cases[0].p
	solve := func() {
		if err := p.SolveInto(&into, SolveOptions{}); err != nil || into.Status != Optimal {
			t.Fatalf("solve: %v, %v", into.Status, err)
		}
	}
	if n := testing.AllocsPerRun(5, solve); n != 0 {
		t.Errorf("%v allocations in a repeated SolveInto, want 0", n)
	}
}

// sameBits reports whether two solutions agree in every field, floats bit
// for bit.
func sameBits(a, b *Solution) bool {
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	return a.Status == b.Status && math.Float64bits(a.Obj) == math.Float64bits(b.Obj) &&
		a.Iterations == b.Iterations && a.Stats == b.Stats &&
		slices.Equal(bits(a.X), bits(b.X)) && slices.Equal(bits(a.Dual), bits(b.Dual))
}

// TestSingularRefactorIsAnError drives a solve into a basis the
// factorisation rejects: y's only coefficient, 1e-14, is a legal simplex
// pivot relative to x's 1e-7 (the ratio 1e-7 clears pivotTol) but sits
// below the factorisation's 1e-12 floor, so the 64th pivot's
// refactorisation fails. That is a numerical failure and must surface as
// ErrSingular, not as an iteration-limit status.
func TestSingularRefactorIsAnError(t *testing.T) {
	const fill = 80
	p := NewProblem(2 + fill)
	p.SetCost(0, -1) // x enters first
	p.SetCost(1, -1) // then y replaces it
	p.AddRow([]int{0, 1}, []float64{1e-7, 1e-14}, LE, 1)
	for i := 0; i < fill; i++ {
		p.SetCost(2+i, -0.5)
		p.AddRow([]int{2 + i}, []float64{1}, LE, 1)
	}
	sol, err := p.Solve()
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("Solve = (%+v, %v), want an error wrapping ErrSingular", sol, err)
	}
	if want := "after 64 pivots"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not say %q", err, want)
	}
}

// FuzzLUSolve factors an arbitrary small sparse integer matrix with both
// kernels: either both find it singular or their solves agree.
func FuzzLUSolve(f *testing.F) {
	f.Add([]byte{2, 9, 0, 0, 9, 1, 2})
	f.Add([]byte{3, 9, 9, 0, 0, 9, 9, 9, 0, 9, 1, 2, 3})
	f.Add([]byte{2, 9, 9, 9, 9, 1, 1}) // singular
	f.Add([]byte{4, 9, 0, 0, 7, 0, 9, 0, 0, 0, 0, 9, 0, 7, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%8
		data = data[1:]
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		// Entries in {-2..2}, more than half of them zero.
		a := make([]float64, n*n)
		for i := range a {
			if b := at(i); b%16 >= 9 {
				a[i] = float64(int(b%5) - 2)
			}
		}
		cols, basis := sparseColumns(n, a)
		ref, refErr := factorizeDense(n, a)
		var lu luFactor
		err := lu.factor(cols, basis)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("sparse factor error %v, dense reference error %v, matrix %v", err, refErr, a)
		}
		if err != nil {
			return
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(int(at(n*n+i)%9) - 4)
		}
		got, want := append([]float64(nil), b...), append([]float64(nil), b...)
		lu.solve(got)
		ref.solve(want)
		if !agree(got, want, 1e-7) {
			t.Fatalf("solve %v, dense reference %v, matrix %v", got, want, a)
		}
		got, want = append(got[:0], b...), append(want[:0], b...)
		lu.solveT(got)
		ref.solveT(want)
		if !agree(got, want, 1e-7) {
			t.Fatalf("solveT %v, dense reference %v, matrix %v", got, want, a)
		}
	})
}
