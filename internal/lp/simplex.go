package lp

import (
	"fmt"
	"math"
	"sync"
)

const (
	feasTol       = 1e-7 // bound/row feasibility tolerance
	optTol        = 1e-7 // reduced-cost optimality tolerance
	pivotTol      = 1e-9 // minimum pivot magnitude
	refactorEvery = 64   // eta vectors kept before refactorization
	degenLimit    = 400  // consecutive degenerate pivots before the bounds are perturbed
	phase1Tol     = 1e-6 // residual infeasibility accepted after phase 1
	perturbScale  = 1e-6 // a perturbed bound moves by perturbScale*(1+|bound|)*(1+u), u in [0,1)
	perturbSeed   = 0x9e3779b97f4a7c15
)

// spCol is a sparse column of the constraint matrix.
type spCol struct {
	ri []int
	rv []float64
}

// simplex holds the working state of a solve. Its arrays outlive the solve
// (simplexPool): load sizes and fills every one of them for the problem at
// hand, so nothing a solve reads was written by an earlier one.
type simplex struct {
	m, n    int // rows; total columns (structural + slack + artificial)
	nStruct int
	cols    []spCol
	cost    []float64 // current-phase cost
	lower   []float64
	upper   []float64
	rhs     []float64

	// Column storage: cols are views into ri/rv — the structural entries
	// column by column in row order (column j from colStart[j]), then one
	// slot per unit column.
	colStart []int
	ri       []int
	rv       []float64

	basis   []int  // basis[i] = column basic in row i
	pos     []int  // pos[j] = row position if basic, else -1
	atUpper []bool // nonbasic status
	x       []float64

	lu   luFactor
	etas etaFile

	// While perturbed (perturb, settle), lower/upper hold shifted bounds and
	// lower0/upper0 the true ones.
	lower0, upper0 []float64

	y, w, res []float64 // BTRAN, FTRAN and refactor work vectors, length m
	nz        []int     // rows where w is nonzero after FTRAN, ascending; room for m

	tally
}

// tally is the part of the working state that load starts from zero: the
// progress of the solve and the counters behind Stats.
type tally struct {
	iters    int
	degen    int // consecutive degenerate pivots
	maxIters int

	// factored says the LU and the basic values are those of the current
	// basis and nonbasic point: refactor sets it, applyStep — every pivot
	// and every bound flip — clears it.
	factored bool

	// Stall handling: whether the bounds are perturbed, and the xorshift
	// state the shifts are drawn from, seeded the same for every solve.
	perturbed bool
	rng       uint64

	// Matrix nonzeros, iterations spent in phase 1, bound flips,
	// factorisations, the largest L+U seen, stalls perturbed away, and the
	// variables Start put at their upper bound and into the starting basis.
	nnz, phase1, flips, refactors, peakLU, perturbations, startAtUpper, startBasic int
}

// simplexPool hands the working state of one solve to the next, so that a
// solve allocates its result and nothing else once the state has grown: a
// fresh Solution, X and Dual from SolveWith, and from SolveInto, into a
// Solution the caller keeps, nothing. A simplex taken from it is
// overwritten by load before anything reads it.
var simplexPool = sync.Pool{New: func() any { return new(simplex) }}

// etaFile is the product-form update of the basis inverse since the last
// refactorisation: eta k replaced the basis column at position r[k] by one
// whose FTRAN image was w, stored as the pivot w[r] in piv[k] and the other
// nonzeros of w, ascending, at start[k]:start[k+1] of idx/val. A push walks
// w's nonzero list, not its rows. The arrays are truncated, not freed, at a
// refactorisation, so a pivot allocates only while the file is still
// growing to its working size.
type etaFile struct {
	r     []int
	piv   []float64
	start []int
	idx   []int
	val   []float64
}

func (e *etaFile) len() int { return len(e.r) }

func (e *etaFile) reset() {
	e.r, e.piv, e.idx, e.val = e.r[:0], e.piv[:0], e.idx[:0], e.val[:0]
	e.start = append(e.start[:0], 0)
}

// push appends the eta of a pivot in row r with entering image w, whose
// nonzeros sit in the rows nz, ascending.
func (e *etaFile) push(r int, w []float64, nz []int) {
	e.r = append(e.r, r)
	e.piv = append(e.piv, w[r])
	for _, i := range nz {
		if i != r {
			e.idx = append(e.idx, i)
			e.val = append(e.val, w[i])
		}
	}
	e.start = append(e.start, len(e.idx))
}

// nonzeros writes the rows where w is nonzero, ascending, to the front of
// nz, which has room for every row of w, and returns them.
func nonzeros(nz []int, w []float64) []int {
	nz = nz[:len(w)]
	n := 0
	for i, wi := range w {
		if wi != 0 {
			nz[n] = i
			n++
		}
	}
	return nz[:n]
}

// SolveOptions tunes the solver.
type SolveOptions struct {
	// MaxIters bounds total pivots (0 means automatic).
	MaxIters int
	// Start, when not nil, is a point to start from, one entry per
	// variable: a variable whose entry equals its finite upper bound starts
	// at that bound instead of at its lower one — basic, in place of the
	// slack of a row the point satisfies with equality, where the
	// triangular rule of the package comment allows it, nonbasic otherwise.
	// Nothing else is read: every other entry means "as without Start". A
	// start that satisfies every row needs no phase 1. A Start of the wrong
	// length is an error.
	Start []float64
}

// Solve runs the two-phase revised simplex method and returns an optimal
// basic solution, or a solution whose Status explains why none exists.
func (p *Problem) Solve() (*Solution, error) { return p.SolveWith(SolveOptions{}) }

// SolveWith is Solve with explicit options. A refactorisation that finds
// the basis numerically singular is an error wrapping ErrSingular, not a
// status.
func (p *Problem) SolveWith(opt SolveOptions) (*Solution, error) {
	s := simplexPool.Get().(*simplex)
	defer simplexPool.Put(s)
	return s.run(p, opt)
}

// SolveInto is SolveWith writing its result into sol, which it overwrites
// whole: X and Dual keep their capacity and are resized to the problem, so a
// caller that keeps its Solution solves an LP of a size it has solved before
// without allocating. X and Dual are empty unless the status is Optimal.
// After an error sol holds nothing of use.
func (p *Problem) SolveInto(sol *Solution, opt SolveOptions) error {
	s := simplexPool.Get().(*simplex)
	defer simplexPool.Put(s)
	return s.runInto(p, opt, sol)
}

// run solves p on s, whatever s held before, into a fresh Solution.
func (s *simplex) run(p *Problem, opt SolveOptions) (*Solution, error) {
	sol := new(Solution)
	if err := s.runInto(p, opt, sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// runInto solves p on s, whatever s held before, into sol.
func (s *simplex) runInto(p *Problem, opt SolveOptions, sol *Solution) error {
	*sol = Solution{X: sol.X[:0], Dual: sol.Dual[:0]}
	if early, err := s.load(p, opt); early != nil || err != nil {
		if early != nil {
			*sol = *early
		}
		return err
	}
	return s.solve(p, sol)
}

// solve runs both phases from the factored starting basis of load, into sol.
func (s *simplex) solve(p *Problem, sol *Solution) error {
	// Artificials sit at p.n+s.m and above; those from live on are still to
	// be driven out. The loop runs once unless a phase stalled, perturbed
	// its bounds and ended at a basis the true bounds reject: settle then
	// hands the violations to fresh artificials and phase 1 runs again
	// from that basis.
	for live := p.n + s.m; ; {
		if s.n > live {
			s.cost = grow(s.cost, s.n)
			clear(s.cost)
			for j := live; j < s.n; j++ {
				s.cost[j] = 1
			}
			before := s.iters
			st, err := s.iterate()
			if err != nil {
				return err
			}
			s.phase1 += s.iters - before
			if st == IterLimit {
				s.report(sol, IterLimit)
				return nil
			}
			if added, err := s.settle(); err != nil {
				return err
			} else if added > 0 {
				continue
			}
			infeas := 0.0
			for j := live; j < s.n; j++ {
				infeas += s.x[j]
			}
			if infeas > phase1Tol {
				s.report(sol, Infeasible)
				return nil
			}
			// Freeze artificials at zero.
			for j := live; j < s.n; j++ {
				s.lower[j], s.upper[j] = 0, 0
				s.x[j] = 0
			}
			live = s.n
		}

		// Phase 2.
		s.cost = grow(s.cost, s.n)
		clear(s.cost[copy(s.cost, p.cost):])
		st, err := s.iterate()
		if err != nil {
			return err
		}
		if st != Optimal {
			s.report(sol, st)
			return nil
		}
		if added, err := s.settle(); err != nil {
			return err
		} else if added == 0 {
			break
		}
	}
	// Final accuracy pass, unless nothing has moved since the last
	// factorisation: it would rebuild the LU and the basic values it holds.
	if !s.factored {
		if err := s.refactor(); err != nil {
			return err
		}
	}
	s.report(sol, Optimal)
	sol.X = grow(sol.X, p.n)
	copy(sol.X, s.x[:p.n])
	sol.Obj = p.Objective(sol.X)
	// Dual values: y = B^{-T} c_B at the final basis.
	sol.Dual = grow(sol.Dual, s.m)
	for i, j := range s.basis {
		sol.Dual[i] = s.cost[j]
	}
	s.btran(sol.Dual)
	return nil
}

// load makes s the working state of a solve of p with its starting basis
// factored: slacks where the residual fits their bounds, artificials (the
// columns past the variables and the slacks) elsewhere, and the variables
// Start names in place of slacks where the triangular rule lets them. A
// problem decided without a pivot returns its solution or error instead,
// and s is not to be solved.
func (s *simplex) load(p *Problem, opt SolveOptions) (*Solution, error) {
	if opt.Start != nil && len(opt.Start) != p.n {
		return nil, fmt.Errorf("lp: Start has %d entries for %d variables", len(opt.Start), p.n)
	}
	m := len(p.rows)
	s.m, s.nStruct = m, p.n
	s.tally = tally{rng: perturbSeed}
	// Columns: structural, then one slack per row, artificials appended
	// below as needed (room for one per row, so appending them does not
	// reallocate).
	total := p.n + m
	s.cols = grow(s.cols, total+m)[:total]
	s.lower = grow(s.lower, total+m)[:total]
	s.upper = grow(s.upper, total+m)[:total]
	s.rhs = grow(s.rhs, m)
	start := grow(s.colStart, p.n+1)
	s.colStart = start
	clear(start)
	for i, r := range p.rows {
		s.rhs[i] = r.rhs
		idx, _ := p.entries(i)
		for _, j := range idx {
			if j < 0 || j >= p.n {
				return nil, fmt.Errorf("lp: row %d references variable %d out of range", i, j)
			}
			start[j+1]++
		}
	}
	for j := 0; j < p.n; j++ {
		start[j+1] += start[j]
	}
	s.nnz = start[p.n]
	s.ri, s.rv = grow(s.ri, s.nnz+2*m), grow(s.rv, s.nnz+2*m)
	ri, rv := s.ri, s.rv
	for j := 0; j < p.n; j++ {
		a, b := start[j], start[j+1]
		s.cols[j] = spCol{ri: ri[a:a:b], rv: rv[a:a:b]}
	}
	for i := range p.rows {
		idx, val := p.entries(i)
		for k, j := range idx {
			c := &s.cols[j]
			c.ri = append(c.ri, i)
			c.rv = append(c.rv, val[k])
		}
	}
	units := s.nnz
	unit := func(i int, v float64) spCol {
		ri[units], rv[units] = i, v
		units++
		return spCol{ri: ri[units-1 : units], rv: rv[units-1 : units]}
	}
	for j := 0; j < p.n; j++ {
		s.lower[j] = p.lower[j]
		s.upper[j] = p.upper[j]
		if math.IsInf(s.lower[j], -1) && math.IsInf(s.upper[j], 1) {
			return nil, fmt.Errorf("lp: variable %d is free; free variables are not supported", j)
		}
		if s.lower[j] > s.upper[j] {
			return &Solution{Status: Infeasible}, nil
		}
	}
	for i, r := range p.rows {
		j := p.n + i
		s.cols[j] = unit(i, 1)
		switch r.sense {
		case LE:
			s.lower[j], s.upper[j] = 0, Inf
		case GE:
			s.lower[j], s.upper[j] = math.Inf(-1), 0
		case EQ:
			s.lower[j], s.upper[j] = 0, 0
		}
	}
	s.maxIters = opt.MaxIters
	if s.maxIters == 0 {
		s.maxIters = 200*(m+1) + 20*p.n + 20000
	}

	if m == 0 {
		return p.solveUnconstrained()
	}

	// Nonbasic start for structural and slack columns: the finite bound
	// (preferring lower), or the upper one where Start sits on it.
	s.x = grow(s.x, total+m)[:total]
	s.atUpper = grow(s.atUpper, total+m)[:total]
	s.pos = grow(s.pos, total+m)[:total]
	for j := 0; j < total; j++ {
		s.pos[j] = -1
		s.atUpper[j] = math.IsInf(s.lower[j], -1)
		s.x[j] = s.lower[j]
		if s.atUpper[j] {
			s.x[j] = s.upper[j]
		}
	}
	// named says whether Start moves variable j to its upper bound.
	named := func(j int, v float64) bool {
		return v == s.upper[j] && !math.IsInf(v, 1) && !math.IsInf(s.lower[j], -1)
	}
	for j, v := range opt.Start {
		if named(j, v) {
			s.x[j] = v
			s.atUpper[j] = true
			s.startAtUpper++
		}
	}

	// Residuals decide the initial basis: slack if its value fits its
	// bounds, otherwise an artificial column.
	s.y, s.w, s.res = grow(s.y, m), grow(s.w, m), grow(s.res, m)
	res := s.res
	copy(res, s.rhs)
	for j := 0; j < p.n; j++ {
		if v := s.x[j]; v != 0 {
			for k, i := range s.cols[j].ri {
				res[i] -= s.cols[j].rv[k] * v
			}
		}
	}
	// The nonzero list lives in the basis' spare capacity: one array backs
	// both, so the list adds no allocation when the state grows.
	s.basis = grow(s.basis, 2*m)[:m]
	s.nz = s.basis[m : 2*m]
	for i := 0; i < m; i++ {
		sj := p.n + i
		if res[i] >= s.lower[sj]-feasTol && res[i] <= s.upper[sj]+feasTol {
			s.basis[i] = sj
			s.pos[sj] = i
			s.x[sj] = res[i]
			continue
		}
		// Clamp slack to its nearest bound and absorb the residual in a
		// fresh artificial with coefficient chosen so it starts >= 0.
		var slackVal, resid float64
		if res[i] > s.upper[sj] {
			slackVal = s.upper[sj]
			resid = res[i] - slackVal
			s.atUpper[sj] = true
		} else {
			slackVal = s.lower[sj]
			resid = res[i] - slackVal
			s.atUpper[sj] = false
		}
		s.x[sj] = slackVal
		sigma := 1.0
		if resid < 0 {
			sigma = -1
		}
		aj := len(s.cols)
		s.cols = append(s.cols, unit(i, sigma))
		s.lower = append(s.lower, 0)
		s.upper = append(s.upper, Inf)
		s.x = append(s.x, resid/sigma)
		s.atUpper = append(s.atUpper, false)
		s.pos = append(s.pos, i)
		s.basis[i] = aj
	}
	s.n = len(s.cols)

	// Crash basis: a variable Start named takes the basis place of the slack
	// of its crashRow, and the slack goes nonbasic at the bound it sits on —
	// the same point, with the variable's cost in the starting duals.
	for j, v := range opt.Start {
		if !named(j, v) {
			continue
		}
		if row := s.crashRow(j); row >= 0 {
			sj := p.n + row
			s.basis[row], s.pos[j] = j, row
			s.pos[sj], s.atUpper[sj] = -1, s.x[sj] != s.lower[sj]
			s.startBasic++
		}
	}

	if err := s.refactor(); err != nil {
		return nil, err
	}
	return nil, nil
}

// crashRow returns the row whose slack structural j may replace in the
// starting basis, or -1: the first of j's rows whose slack is still basic
// and sits exactly on one of its bounds — the point meets the row with
// equality — under a coefficient worth pivoting on, provided j has no entry
// in any row an earlier variable took. The structural columns, in the order
// taken, are therefore triangular on the rows taken, and the basis cannot be
// singular.
func (s *simplex) crashRow(j int) int {
	col, row := s.cols[j], -1
	for k, i := range col.ri {
		sj := s.nStruct + i
		switch {
		case s.basis[i] < s.nStruct:
			return -1
		case row < 0 && s.basis[i] == sj && math.Abs(col.rv[k]) >= pivotTol &&
			(s.x[sj] == s.lower[sj] || s.x[sj] == s.upper[sj]):
			row = i
		}
	}
	return row
}

// report writes the solve's status and counters into sol.
func (s *simplex) report(sol *Solution, st Status) {
	sol.Status, sol.Iterations, sol.Stats = st, s.iters, Stats{
		Rows:           s.m,
		Cols:           s.nStruct,
		Nonzeros:       s.nnz,
		Phase1Pivots:   s.phase1,
		Phase2Pivots:   s.iters - s.phase1,
		BoundFlips:     s.flips,
		Refactors:      s.refactors,
		PeakLUNonzeros: s.peakLU,
		Perturbations:  s.perturbations,
		StartAtUpper:   s.startAtUpper,
		StartBasic:     s.startBasic,
	}
}

// solveUnconstrained handles problems without rows: each variable sits at
// the bound favoured by its cost.
func (p *Problem) solveUnconstrained() (*Solution, error) {
	x := make([]float64, p.n)
	for j := 0; j < p.n; j++ {
		switch {
		case p.cost[j] > 0:
			if math.IsInf(p.lower[j], -1) {
				return &Solution{Status: Unbounded}, nil
			}
			x[j] = p.lower[j]
		case p.cost[j] < 0:
			if math.IsInf(p.upper[j], 1) {
				return &Solution{Status: Unbounded}, nil
			}
			x[j] = p.upper[j]
		default:
			if !math.IsInf(p.lower[j], -1) {
				x[j] = p.lower[j]
			} else {
				x[j] = p.upper[j]
			}
		}
	}
	return &Solution{Status: Optimal, X: x, Obj: p.Objective(x)}, nil
}

// refactor rebuilds the sparse LU of the basis, empties the eta file and
// recomputes basic values from scratch for numerical hygiene.
func (s *simplex) refactor() error {
	if err := s.lu.factor(s.cols, s.basis); err != nil {
		return fmt.Errorf("lp: singular basis after %d pivots: %w", s.iters, err)
	}
	s.etas.reset()
	s.factored = true
	s.refactors++
	s.peakLU = max(s.peakLU, s.lu.nnz())
	// x_B = B^{-1} (b - N x_N).
	res := s.res
	copy(res, s.rhs)
	for j := 0; j < s.n; j++ {
		if s.pos[j] >= 0 {
			continue
		}
		if v := s.x[j]; v != 0 {
			col := s.cols[j]
			for k, r := range col.ri {
				res[r] -= col.rv[k] * v
			}
		}
	}
	s.lu.solve(res)
	for i, j := range s.basis {
		s.x[j] = res[i]
	}
	return nil
}

// ftran computes w = B^{-1} v in place.
func (s *simplex) ftran(v []float64) {
	s.lu.solve(v)
	e := &s.etas
	n := e.len()
	piv, start, idx, val := e.piv[:n], e.start[:n+1], e.idx, e.val
	for k, r := range e.r {
		alpha := v[r] / piv[k]
		if alpha != 0 {
			// Cut to ix's length, vx needs no bounds check in the loop.
			ix := idx[start[k]:start[k+1]]
			vx := val[start[k]:start[k+1]]
			vx = vx[:len(ix)]
			for t, i := range ix {
				v[i] -= vx[t] * alpha
			}
		}
		v[r] = alpha
	}
}

// btran computes y = B^{-T} v in place.
func (s *simplex) btran(v []float64) {
	e := &s.etas
	n := e.len()
	er, piv, start, idx, val := e.r[:n], e.piv[:n], e.start[:n+1], e.idx, e.val
	for k := n - 1; k >= 0; k-- {
		sum := 0.0
		ix := idx[start[k]:start[k+1]]
		vx := val[start[k]:start[k+1]]
		vx = vx[:len(ix)]
		for t, i := range ix {
			sum += vx[t] * v[i]
		}
		r := er[k]
		v[r] = (v[r] - sum) / piv[k]
	}
	s.lu.solveT(v)
}

// reducedCost returns c - y . col: c_j - y . A_j for column j of cost c.
func reducedCost(c float64, col spCol, y []float64) float64 {
	rv := col.rv[:len(col.ri)]
	for k, r := range col.ri {
		c -= rv[k] * y[r]
	}
	return c
}

// iterate runs primal simplex pivots with the current cost vector until
// optimality, unboundedness, or the iteration limit, perturbing the bounds
// when it stalls; the caller settles. The error is a refactorisation that
// found the basis singular. After FTRAN a pivot lists the rows where the
// entering image w is nonzero, and the ratio test, the basic-value update
// and the eta push walk that list, not every row.
func (s *simplex) iterate() (Status, error) {
	m := s.m
	y, w := s.y[:m], s.w[:m]
	for {
		if s.iters >= s.maxIters {
			return IterLimit, nil
		}
		// Nothing in a pivot reallocates the working arrays; reading them
		// through locals of known length lets the loops below keep their
		// headers in registers and skip most bounds checks.
		n := s.n
		basis := s.basis[:m]
		cost, cols, pos, atUpper := s.cost[:n], s.cols[:n], s.pos[:n], s.atUpper[:n]
		lower, upper, x := s.lower[:n], s.upper[:n], s.x[:n]

		// BTRAN for duals; the basis writes every row of y.
		for i, j := range basis {
			y[i] = cost[j]
		}
		s.btran(y)

		// Pricing: the first column of largest reduced cost beyond optTol in
		// its improving direction. best starts at optTol, so beating it is
		// the eligibility test.
		enter := -1
		enterDir := 1.0
		best := optTol
		for j := range cols {
			if pos[j] >= 0 || lower[j] == upper[j] {
				continue
			}
			d := reducedCost(cost[j], cols[j], y)
			if !atUpper[j] {
				if -d > best {
					best = -d
					enter = j
					enterDir = 1
				}
			} else if d > best {
				best = d
				enter = j
				enterDir = -1
			}
		}
		if enter < 0 {
			return Optimal, nil
		}

		// FTRAN of the entering column, and the rows where it is nonzero.
		clear(w)
		col := cols[enter]
		for k, r := range col.ri {
			w[r] = col.rv[k]
		}
		s.ftran(w)
		nz := nonzeros(s.nz, w)

		// Ratio test with bounded variables. Entering moves by
		// enterDir * delta >= 0; basic i changes by -enterDir*delta*w[i].
		// A zero w[i] is below pivotTol, so only the listed rows compete.
		delta := math.Inf(1)
		leave := -1
		leaveToUpper := false
		if !math.IsInf(upper[enter], 1) && !math.IsInf(lower[enter], -1) {
			delta = upper[enter] - lower[enter]
		}
		for _, i := range nz {
			wi := w[i] * enterDir
			if math.Abs(wi) < pivotTol {
				continue
			}
			jb := basis[i]
			var ratio float64
			var toUpper bool
			if wi > 0 {
				// Basic decreases toward its lower bound.
				if math.IsInf(lower[jb], -1) {
					continue
				}
				ratio = (x[jb] - lower[jb]) / wi
				toUpper = false
			} else {
				if math.IsInf(upper[jb], 1) {
					continue
				}
				ratio = (x[jb] - upper[jb]) / wi
				toUpper = true
			}
			if ratio < 0 {
				ratio = 0
			}
			// Among near-tied ratios the larger pivot wins (stability).
			if ratio < delta-pivotTol ||
				(ratio < delta+pivotTol && leave >= 0 && math.Abs(w[i]) > math.Abs(w[leave])) {
				delta = ratio
				leave = i
				leaveToUpper = toUpper
			}
		}
		if math.IsInf(delta, 1) {
			return Unbounded, nil
		}

		if delta <= feasTol {
			s.degen++
			if s.degen > degenLimit {
				// Stalled: price again from this basis with its
				// degenerate bounds moved apart.
				s.perturb()
				continue
			}
		} else {
			s.degen = 0
		}

		if leave < 0 {
			// Bound flip: entering jumps to its other bound.
			s.applyStep(enterDir, delta, w, nz)
			atUpper[enter] = !atUpper[enter]
			if atUpper[enter] {
				x[enter] = upper[enter]
			} else {
				x[enter] = lower[enter]
			}
			s.iters++
			s.flips++
			continue
		}

		// Pivot: update values, basis, and eta file.
		s.applyStep(enterDir, delta, w, nz)
		x[enter] += enterDir * delta
		jOut := basis[leave]
		if leaveToUpper {
			x[jOut] = upper[jOut]
			atUpper[jOut] = true
		} else {
			x[jOut] = lower[jOut]
			atUpper[jOut] = false
		}
		pos[jOut] = -1
		basis[leave] = enter
		pos[enter] = leave
		s.etas.push(leave, w, nz)
		s.iters++
		if s.etas.len() >= refactorEvery {
			if err := s.refactor(); err != nil {
				return IterLimit, err
			}
		}
	}
}

// applyStep moves the basic variables for a step of size delta in direction
// dir of the entering column (w = B^{-1} A_enter, nonzero in the rows nz).
func (s *simplex) applyStep(dir, delta float64, w []float64, nz []int) {
	s.factored = false
	if delta == 0 {
		return
	}
	for _, i := range nz {
		s.x[s.basis[i]] -= dir * delta * w[i]
	}
}

// perturb answers a stall — degenLimit consecutive degenerate pivots — by
// moving every bound a basic variable sits on outward by its own small
// random amount, so that the tied ratios of the degenerate vertex become
// distinct positive steps and Dantzig pricing makes progress again. The true
// bounds are kept for settle; the amounts come from a fixed-seed xorshift,
// so a solve is a function of its problem alone.
func (s *simplex) perturb() {
	if !s.perturbed {
		s.lower0 = append(s.lower0[:0], s.lower...)
		s.upper0 = append(s.upper0[:0], s.upper...)
		s.perturbed = true
	}
	for _, j := range s.basis {
		if s.x[j]-s.lower[j] <= feasTol {
			s.lower[j] -= s.shift(s.lower[j])
		}
		if s.upper[j]-s.x[j] <= feasTol {
			s.upper[j] += s.shift(s.upper[j])
		}
	}
	s.perturbations++
	s.degen = 0
}

// shift draws the amount one bound moves by: perturbScale relative to the
// bound's size, times a factor in [1, 2) that differs from bound to bound.
func (s *simplex) shift(bound float64) float64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	u := float64(s.rng>>11) / (1 << 53)
	return perturbScale * (1 + math.Abs(bound)) * (1 + u)
}

// settle closes a phase. If the phase perturbed its bounds it puts the true
// ones back, snaps the nonbasic variables onto them and recomputes the basic
// ones; the basis is still dual feasible, so the restored point is the
// phase's optimum unless a basic variable now lies outside its true bounds
// by more than feasTol. Each such variable is made nonbasic at the bound it
// violates and its place in the basis is taken by a fresh artificial — its
// own column, signed so the artificial starts at the size of the violation
// — for the caller's next phase 1 to drive out. It returns how many
// artificials it added.
func (s *simplex) settle() (int, error) {
	s.degen = 0
	if !s.perturbed {
		return 0, nil
	}
	s.perturbed = false
	copy(s.lower, s.lower0)
	copy(s.upper, s.upper0)
	for j := 0; j < s.n; j++ {
		if s.pos[j] >= 0 {
			continue
		}
		if s.atUpper[j] {
			s.x[j] = s.upper[j]
		} else {
			s.x[j] = s.lower[j]
		}
	}
	if err := s.refactor(); err != nil {
		return 0, err
	}
	added := 0
	for i, j := range s.basis {
		v := s.x[j]
		col := s.cols[j]
		switch {
		case v < s.lower[j]-feasTol:
			neg := make([]float64, len(col.rv))
			for k, a := range col.rv {
				neg[k] = -a
			}
			col.rv = neg
			s.x[j], s.atUpper[j] = s.lower[j], false
		case v > s.upper[j]+feasTol:
			s.x[j], s.atUpper[j] = s.upper[j], true
		default:
			continue
		}
		s.pos[j] = -1
		s.basis[i] = len(s.cols)
		s.cols = append(s.cols, col)
		s.lower = append(s.lower, 0)
		s.upper = append(s.upper, Inf)
		s.x = append(s.x, math.Abs(v-s.x[j]))
		s.atUpper = append(s.atUpper, false)
		s.pos = append(s.pos, i)
		added++
	}
	if added == 0 {
		return 0, nil
	}
	s.n = len(s.cols)
	return added, s.refactor()
}
