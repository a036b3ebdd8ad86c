// Package lp implements a linear-programming solver: a revised simplex
// method with bounded variables, two-phase initialization, Dantzig pricing,
// and a bound perturbation as the answer to a stall. The basis is kept as a
// sparse LU factorisation (lu.go: a singleton pass peels the unit slack and
// artificial columns that make up most of a scheduling basis, the remaining
// nucleus is factored left-looking with threshold pivoting) plus a sparse
// product-form eta file, refactored every refactorEvery pivots; FTRAN and
// BTRAN walk stored nonzeros only, and the ratio test, the basic-value
// update and the eta push walk the list of rows where FTRAN's image is
// nonzero, so a pivot costs what the basis and the entering column hold,
// not the square of its order. It stands in for the commercial solver
// (Gurobi) used in the paper's experiments and solves the relaxations
// (1)-(4), (5)-(8)/(9)-(12) and (19)-(21).
//
// Solutions returned by Solve are basic (vertex) solutions, which the
// iterative-rounding algorithms in internal/core rely on.
//
// # Starting point
//
// SolveOptions.Start names a point to start from. Exactly one thing is
// read from it: a variable whose entry equals its finite upper bound starts
// at that bound; any other entry, and a nil Start, leave the variable where
// a cold solve puts it (its lower bound, or the upper one if there is no
// lower). The starting basis is then chosen from the row residuals as
// always — the slack where the point satisfies the row, an artificial where
// it does not — so a start that satisfies every row has no artificial and
// no phase 1, and a partial one pays phase 1 only for the rows it misses.
//
// Then the named variables are crashed into that basis. Each, in index
// order, takes the basis place of the slack of the first of its rows,
// ascending, that (a) still has its slack basic and sitting exactly on one
// of its bounds — the point meets the row with equality — and (b) carries a
// coefficient of at least pivotTol, provided the variable has no entry in
// any row an earlier variable took; the displaced slack goes nonbasic at
// the bound it sits on. The point does not move. The structural columns, in
// the order taken, are zero above their own row on the rows taken, so with
// the unit columns around them the basis is triangular and cannot be
// singular: there is no fallback because none is needed. What changes is
// the starting duals — y = c_j/a_ij on a taken row instead of 0 — and that
// the simplex need not spend a degenerate pivot per variable pulling them
// in. In a scheduling LP whose covering rows come first, a schedule's
// variables take exactly those rows, and a flow placed at its cheapest
// column needs no pivot at all. Stats.StartAtUpper counts the variables
// named, Stats.StartBasic those that entered the basis. A Start that names
// no upper bound, and a nil one, pivot exactly as a cold solve always did.
// A caller that holds a feasible 0/1 point of its LP (internal/core: a
// greedy schedule) and needs the optimum, not a particular vertex, passes
// it. A Start of the wrong length is an error.
//
// # Working memory
//
// A solve's working state — column arrays, bounds, basis, work vectors, the
// LU and the eta file — comes from a sync.Pool and goes back on every exit,
// so a solve allocates only what the state has not yet grown to and its
// result: SolveWith a fresh Solution, X and Dual for the caller to keep,
// SolveInto nothing at all once the Solution the caller hands it has held a
// problem of the size before (internal/core keeps its Solutions in its
// workspace and solves every LP that way). The state carries nothing from one solve to
// the next but capacity: load sizes and writes every array before anything
// reads it, and the counters and the perturbation's random state restart
// from the same values, so a solve is still a function of its problem and
// options alone, on any goroutine, whatever the pool held.
//
// A Problem is reusable on the same terms. Its rows live in one
// index/value arena, row after row: AppendRow hands a builder the next row's
// run of it to write in place, AddRow copies into one, and Entries gives a
// span of rows back as one view, so a builder that groups entries by row can
// scatter them straight into the arena. Reset empties a Problem for the next
// LP and keeps nothing of it but the capacity of its arrays, which it can
// also reserve ahead, so a caller that keeps its Problems builds an LP of a
// size it has built before without allocating.
//
// # Stalls
//
// A 0/1 point is a maximally degenerate vertex: every tight row the crash
// basis did not take has its slack basic at a bound, and Dantzig pricing can
// turn the basis over there indefinitely without moving. After degenLimit
// consecutive degenerate pivots the solver perturbs: every bound that a
// basic variable sits on moves outward by perturbScale*(1+|bound|)*(1+u) — about 1e-6, ten times
// feasTol so that the steps it opens count as progress, u a draw in [0,1)
// from a fixed-seed xorshift so that no two are equal — which turns the
// tied zero ratios into distinct positive ones; pricing and the ratio test
// are unchanged. When the phase ends the true bounds come back, nonbasic
// variables are snapped onto them, the basis is refactored and the basic
// values recomputed: the basis is still dual feasible, so the restored
// point is optimal if it is within feasTol of every bound. A basic
// variable that is not is swapped for an artificial carrying its violation
// and the phases run again from that basis (simplex.settle). A perturbed
// point is never returned, Stats.Perturbations counts the stalls, and a
// solve that never makes degenLimit degenerate pivots in a row is not
// touched by any of this. The package reads no clock and no global random
// source: a solve is a function of its problem and options.
//
//flowsched:deterministic
package lp

import (
	"fmt"
	"math"
	"slices"
)

// Inf is the bound value representing an infinite (absent) bound.
var Inf = math.Inf(1)

// Sense is the relational sense of a linear constraint row.
type Sense int

const (
	// LE is a "<=" constraint.
	LE Sense = iota
	// GE is a ">=" constraint.
	GE
	// EQ is an "=" constraint.
	EQ
)

// String returns "<=", ">=" or "=".
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal basic solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no solution.
	Infeasible
	// Unbounded means the objective is unbounded below.
	Unbounded
	// IterLimit means the iteration limit was exhausted.
	IterLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return "iteration-limit"
	}
}

// row is one linear constraint: its sense and right-hand side, and where its
// entries begin in the problem's idx/val arena (they end where the next
// row's begin).
type row struct {
	start int
	sense Sense
	rhs   float64
}

// Problem is a linear program over variables x_0..x_{n-1}:
//
//	minimize    sum_j Cost[j] * x_j
//	subject to  each added row, and Lower[j] <= x_j <= Upper[j].
//
// Build with Reset, which sizes the variables at cost 0 and bounds
// [0, +Inf) (the zero Problem is ready for it), SetCost, SetBounds and
// AddRow or AppendRow, then call Solve.
//
// A Problem is reusable. Reset empties it for the next LP and keeps the
// capacity of its arrays, and a solve keeps no reference to it, so it can be
// reset as soon as SolveWith returns, unless something still reads its rows.
type Problem struct {
	n     int
	cost  []float64
	lower []float64
	upper []float64
	rows  []row
	// The entries of every row, one row after another in row order. A row is
	// a run of this arena that AppendRow hands out and its caller writes in
	// place; AddRow copies into one.
	idx []int
	val []float64
}

// Reset makes p a problem over numVars variables, all with zero cost and
// bounds [0, +Inf), and no rows, keeping the capacity of p's arrays; nothing
// of the problem before survives. rows and
// nonzeros reserve room for that many rows and entries in all, so that a
// builder that knows its LP's size appends every row without the arena
// growing.
func (p *Problem) Reset(numVars, rows, nonzeros int) {
	p.n = numVars
	p.cost, p.lower, p.upper = grow(p.cost, numVars), grow(p.lower, numVars), grow(p.upper, numVars)
	clear(p.cost)
	clear(p.lower)
	for j := range p.upper {
		p.upper[j] = Inf
	}
	p.rows = slices.Grow(p.rows[:0], rows)
	p.idx = slices.Grow(p.idx[:0], nonzeros)
	p.val = slices.Grow(p.val[:0], nonzeros)
}

// NumRows returns the number of constraint rows.
func (p *Problem) NumRows() int { return len(p.rows) }

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return p.n }

// SetCost sets the objective coefficient of variable j.
func (p *Problem) SetCost(j int, c float64) { p.cost[j] = c }

// SetBounds sets the bounds of variable j. Use -Inf / Inf for free sides.
func (p *Problem) SetBounds(j int, lo, hi float64) {
	p.lower[j] = lo
	p.upper[j] = hi
}

// Var returns the cost and bounds of variable j.
func (p *Problem) Var(j int) (cost, lo, hi float64) { return p.cost[j], p.lower[j], p.upper[j] }

// AddRow appends the constraint sum_k val[k]*x_{idx[k]} (sense) rhs and
// returns its row index: AppendRow, with the entries copied in. The idx
// slice must not contain duplicates.
func (p *Problem) AddRow(idx []int, val []float64, sense Sense, rhs float64) int {
	if len(idx) != len(val) {
		panic("lp: AddRow index/value length mismatch")
	}
	ri, rv := p.AppendRow(len(idx), sense, rhs)
	copy(ri, idx)
	copy(rv, val)
	return len(p.rows) - 1
}

// AppendRow appends a constraint of n entries, sum_k val[k]*x_{idx[k]}
// (sense) rhs, and returns idx and val, zeroed, for the caller to write: they
// are the row itself, in the arena, so nothing is copied. They stay the
// row's until the arena grows, which appending a row past the room Reset
// reserved may do; the entries of a row must name distinct variables.
func (p *Problem) AppendRow(n int, sense Sense, rhs float64) (idx []int, val []float64) {
	a := len(p.idx)
	p.rows = append(p.rows, row{start: a, sense: sense, rhs: rhs})
	p.idx, p.val = slices.Grow(p.idx, n)[:a+n], slices.Grow(p.val, n)[:a+n]
	idx, val = p.idx[a:], p.val[a:]
	clear(idx)
	clear(val)
	return idx, val
}

// Entries returns the entries of rows from up to to, which lie one after
// another in the arena in row order, as one view into it: reading it reads
// the rows, writing it writes them.
func (p *Problem) Entries(from, to int) ([]int, []float64) {
	a, b := p.offset(from), p.offset(to)
	return p.idx[a:b:b], p.val[a:b:b]
}

// offset is where the entries of row i begin in the arena, the arena's
// length for i = NumRows().
func (p *Problem) offset(i int) int {
	if i == len(p.rows) {
		return len(p.idx)
	}
	return p.rows[i].start
}

// Row returns row i: its entries, as Entries(i, i+1) gives them, its sense
// and its right-hand side.
func (p *Problem) Row(i int) (idx []int, val []float64, sense Sense, rhs float64) {
	idx, val = p.entries(i)
	return idx, val, p.rows[i].sense, p.rows[i].rhs
}

// entries returns the variables and coefficients of row i, as views into the
// arena.
func (p *Problem) entries(i int) ([]int, []float64) { return p.Entries(i, i+1) }

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	// X holds the optimal variable values (valid when Status == Optimal).
	X []float64
	// Obj is the optimal objective value.
	Obj float64
	// Dual holds the dual value (shadow price) of each constraint row at
	// the final basis (valid when Status == Optimal). For a minimization
	// problem, LE rows have non-positive duals and GE rows non-negative
	// duals at optimality (up to tolerance).
	Dual []float64
	// Iterations counts simplex pivots across both phases.
	Iterations int
	// Stats breaks the solve down by stage.
	Stats Stats
}

// Stats counts what a solve was given and what it did. They are counters
// the pivot loop keeps anyway; the package reads no clock.
type Stats struct {
	// Rows, Cols and Nonzeros size the constraint matrix as built (slack
	// and artificial columns not counted).
	Rows, Cols, Nonzeros int
	// Phase1Pivots and Phase2Pivots split Solution.Iterations by phase.
	Phase1Pivots, Phase2Pivots int
	// BoundFlips counts the iterations among them that moved a nonbasic
	// variable to its other bound and left the basis alone.
	BoundFlips int
	// Refactors counts basis factorisations, the first included. The final
	// accuracy pass is one more unless nothing moved after the last of them
	// — it would recompute what the solve already holds and is skipped — so
	// a solve that needs no pivot factors once.
	Refactors int
	// PeakLUNonzeros is the largest number of nonzeros any of them stored
	// in L and U together, diagonal included.
	PeakLUNonzeros int
	// Perturbations counts the stalls the solve answered by perturbing its
	// bounds (0 for a solve that never made degenLimit degenerate pivots in
	// a row).
	Perturbations int
	// StartAtUpper counts the variables SolveOptions.Start put at their
	// upper bound (0 for a cold start), basic or not.
	StartAtUpper int
	// StartBasic counts those among them that entered the starting basis in
	// place of a slack (the crash basis of the package comment).
	StartBasic int
}

// PricedOut reports whether a nonbasic variable at its lower bound with
// reduced cost d stays out of the basis at optimality: Solve's pricing
// enters such a variable only when d < -optTol. A caller that prices a
// column the LP does not hold against a returned Dual applies the same test.
func PricedOut(d float64) bool { return d >= -optTol }

// Pivots is the iteration count of both phases together,
// Solution.Iterations for a single solve.
func (s Stats) Pivots() int { return s.Phase1Pivots + s.Phase2Pivots }

// Add accumulates another solve into s: counts add up, the peak is the
// larger of the two.
func (s *Stats) Add(o Stats) {
	s.Rows += o.Rows
	s.Cols += o.Cols
	s.Nonzeros += o.Nonzeros
	s.Phase1Pivots += o.Phase1Pivots
	s.Phase2Pivots += o.Phase2Pivots
	s.BoundFlips += o.BoundFlips
	s.Refactors += o.Refactors
	s.PeakLUNonzeros = max(s.PeakLUNonzeros, o.PeakLUNonzeros)
	s.Perturbations += o.Perturbations
	s.StartAtUpper += o.StartAtUpper
	s.StartBasic += o.StartBasic
}

// RowActivity returns sum_k val[k]*X[idx[k]] for row i of the problem.
func (p *Problem) RowActivity(x []float64, i int) float64 {
	idx, val := p.entries(i)
	s := 0.0
	for k, j := range idx {
		s += val[k] * x[j]
	}
	return s
}

// CheckFeasible verifies that x satisfies all rows and bounds of p within
// tolerance tol, returning a descriptive error for the first violation.
func (p *Problem) CheckFeasible(x []float64, tol float64) error {
	for j := 0; j < p.n; j++ {
		if x[j] < p.lower[j]-tol || x[j] > p.upper[j]+tol {
			return fmt.Errorf("lp: x[%d]=%g violates bounds [%g,%g]", j, x[j], p.lower[j], p.upper[j])
		}
	}
	for i, r := range p.rows {
		a := p.RowActivity(x, i)
		switch r.sense {
		case LE:
			if a > r.rhs+tol {
				return fmt.Errorf("lp: row %d activity %g > rhs %g", i, a, r.rhs)
			}
		case GE:
			if a < r.rhs-tol {
				return fmt.Errorf("lp: row %d activity %g < rhs %g", i, a, r.rhs)
			}
		case EQ:
			if math.Abs(a-r.rhs) > tol {
				return fmt.Errorf("lp: row %d activity %g != rhs %g", i, a, r.rhs)
			}
		}
	}
	return nil
}

// Objective returns the objective value of x under p's costs.
func (p *Problem) Objective(x []float64) float64 {
	s := 0.0
	for j := 0; j < p.n; j++ {
		s += p.cost[j] * x[j]
	}
	return s
}
