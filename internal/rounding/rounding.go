// Package rounding implements a constructive version of the rounding
// theorem of Karp, Leighton, Rivest, Thompson, Vazirani and Vazirani
// ("Global wire routing in two-dimensional arrays"), quoted as Lemma 4.3 in
// the paper. Given a fractional vector x in [0,1]^n and linear rows whose
// per-column adverse mass is bounded, it produces an integral 0/1 vector
// whose row activities move adversely by strictly less than each row's
// budget.
//
// The construction alternates two steps: (1) drop every row whose maximum
// remaining adverse movement is already below its budget; (2) otherwise the
// active system has fewer rows than fractional variables (the counting
// argument of the theorem), so a null-space direction exists along which x
// can be pushed until some variable hits 0 or 1, leaving all active row
// activities unchanged. LP-degenerate corner cases where the active system
// is square are resolved by force-dropping the row with the smallest
// adverse potential; the ForcedDrops counter reports how often this
// happened (zero in all tested workloads) so callers can assert on it.
package rounding

import "math"

const fixTol = 1e-9

// RowKind distinguishes the direction in which a row may be violated.
type RowKind int

const (
	// Upper rows guard sum(coef*x) from increasing: the rounded activity
	// stays below the initial activity plus the row's budget.
	Upper RowKind = iota
	// Lower rows guard sum(coef*x) from decreasing: the rounded activity
	// stays above the initial activity minus the budget.
	Lower
)

// System collects rounding rows over a number of variables that Reset sets.
// It is reusable: Reset empties it for the next system and keeps the
// capacity of its rows and of Round's working arrays, so a caller that keeps
// a System rounds a system of a size it has rounded before without
// allocating.
type System struct {
	numVars int
	rows    []sysRow

	// Round's working state, kept between calls and rewritten by each before
	// it is read: the point, which variables are fractional and their list,
	// which rows are active, and the result, whose X is cur.
	cur      []float64
	frac     []bool
	fracList []int
	active   []bool
	res      Result
	// nullDirection's: the column of each fractional variable (read only at
	// fractional variables), the dense rows one after another in flat and as
	// views in dense, the pivot columns, and the direction.
	pos      []int
	flat     []float64
	dense    [][]float64
	pivotCol []int
	isPivot  []bool
	dir      []float64
}

type sysRow struct {
	idx    []int
	coef   []float64
	kind   RowKind
	budget float64
}

// Reset makes s an empty system over numVars variables, keeping the
// capacity of its arrays; the zero System is ready for it. It drops the
// rows, and with them the caller's slices AddRow kept; the Result of the
// last Round is the next Round's to overwrite.
func (s *System) Reset(numVars int) {
	s.numVars = numVars
	clear(s.rows)
	s.rows = s.rows[:0]
}

// grow returns s resized to n, reallocated only when its capacity is short;
// the contents are whatever s held.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AddRow adds a row with the given sparse coefficients (which must be
// non-negative), kind, and budget. The guarantee delivered by Round is:
//
//	Upper:  sum(coef * xhat) <  sum(coef * x) + budget
//	Lower:  sum(coef * xhat) >  sum(coef * x) - budget
//
// The system keeps idx and coef, not copies — a row can be an LP's own row
// — and only reads them, so the caller must not change them before Round
// returns; Reset lets go of them.
func (s *System) AddRow(idx []int, coef []float64, kind RowKind, budget float64) {
	if len(idx) != len(coef) {
		panic("rounding: AddRow index/coefficient length mismatch")
	}
	s.rows = append(s.rows, sysRow{idx: idx, coef: coef, kind: kind, budget: budget})
}

// Result is the output of Round. It belongs to the System that returned it,
// X included: the next Round of that System overwrites it, so a caller that
// keeps X past then copies it.
type Result struct {
	// X is the rounded vector; every entry is exactly 0 or 1.
	X []float64
	// ForcedDrops counts degenerate square-system resolutions (see the
	// package comment); it is zero on all instances arising from basic LP
	// solutions in this repository and tests assert that.
	ForcedDrops int
}

// Round rounds x (entries in [0,1]) to a 0/1 vector honouring every row's
// budget guarantee. The input slice is not modified. The Result is s's own
// (see Result), and so is the memory Round works in: Round allocates only
// where a working array must grow past what earlier calls needed.
func (s *System) Round(x []float64) *Result {
	n := s.numVars
	cur := grow(s.cur, n)
	copy(cur, x)

	frac := grow(s.frac, n)
	fracList := s.fracList[:0]
	for j := 0; j < n; j++ {
		frac[j] = false
		if cur[j] > fixTol && cur[j] < 1-fixTol {
			frac[j] = true
			fracList = append(fracList, j)
		} else if cur[j] >= 1-fixTol {
			cur[j] = 1
		} else {
			cur[j] = 0
		}
	}
	s.cur, s.frac = cur, frac

	active := grow(s.active, len(s.rows))
	s.active = active
	for i := range active {
		active[i] = true
	}
	res := &s.res
	*res = Result{}

	for len(fracList) > 0 {
		// Step 1: drop rows whose adverse potential is under budget.
		anyActive := false
		minPotRow := -1
		minPotSlack := math.Inf(1)
		for i, r := range s.rows {
			if !active[i] {
				continue
			}
			pot := s.adverse(r, cur, frac)
			if pot < r.budget-fixTol {
				active[i] = false
				continue
			}
			anyActive = true
			if pot-r.budget < minPotSlack {
				minPotSlack = pot - r.budget
				minPotRow = i
			}
		}

		if !anyActive {
			// No constraints left: round remaining variables to nearest.
			for _, j := range fracList {
				if cur[j] >= 0.5 {
					cur[j] = 1
				} else {
					cur[j] = 0
				}
				frac[j] = false
			}
			fracList = fracList[:0]
			break
		}

		// Step 2: find a null direction of the active rows restricted to
		// fractional variables.
		dir := s.nullDirection(cur, frac, fracList, active)
		if dir == nil {
			// Degenerate square/over-determined system: force-drop the
			// least-at-risk row and retry.
			active[minPotRow] = false
			res.ForcedDrops++
			continue
		}

		// Walk until the first variable hits a bound.
		step := math.Inf(1)
		for k, j := range fracList {
			v := dir[k]
			if v > fixTol {
				if st := (1 - cur[j]) / v; st < step {
					step = st
				}
			} else if v < -fixTol {
				if st := cur[j] / -v; st < step {
					step = st
				}
			}
		}
		if math.IsInf(step, 1) {
			// Zero direction (numerically); force progress by dropping.
			active[minPotRow] = false
			res.ForcedDrops++
			continue
		}
		for k, j := range fracList {
			cur[j] += step * dir[k]
		}
		// Re-collect fractional variables.
		newList := fracList[:0]
		for _, j := range fracList {
			if cur[j] > fixTol && cur[j] < 1-fixTol {
				newList = append(newList, j)
			} else {
				frac[j] = false
				if cur[j] >= 1-fixTol {
					cur[j] = 1
				} else {
					cur[j] = 0
				}
			}
		}
		fracList = newList
	}

	s.fracList = fracList[:0]
	res.X = cur
	return res
}

// adverse computes the maximum remaining adverse movement of row r given
// the current point and fractional set.
func (s *System) adverse(r sysRow, cur []float64, frac []bool) float64 {
	pot := 0.0
	for k, j := range r.idx {
		if !frac[j] {
			continue
		}
		c := r.coef[k]
		if r.kind == Upper {
			pot += c * (1 - cur[j]) // worst case: rounds up
		} else {
			pot += c * cur[j] // worst case: rounds down
		}
	}
	return pot
}

// nullDirection returns a nonzero vector d (indexed parallel to fracList)
// with A_active * d = 0, or nil if the active system has no null space
// (square or overdetermined after elimination).
func (s *System) nullDirection(cur []float64, frac []bool, fracList []int, active []bool) []float64 {
	// Column position of each fractional variable.
	s.pos = grow(s.pos, s.numVars)
	pos := s.pos
	for k, j := range fracList {
		pos[j] = k
	}
	// Gather active rows that touch fractional variables, each a zeroed run
	// of nCols entries in s.flat, dropped again if it touches none.
	nCols := len(fracList)
	flat := s.flat[:0]
	for i, r := range s.rows {
		if !active[i] {
			continue
		}
		at := len(flat)
		flat = append(flat, make([]float64, nCols)...)
		dr, touched := flat[at:], false
		for k, j := range r.idx {
			if !frac[j] {
				continue
			}
			touched = true
			dr[pos[j]] += r.coef[k]
		}
		if !touched {
			flat = flat[:at]
		}
	}
	s.flat = flat
	mat := s.dense[:0]
	for at := 0; at < len(flat); at += nCols {
		mat = append(mat, flat[at:at+nCols:at+nCols])
	}
	s.dense = mat
	if len(mat) >= nCols {
		// Might still be rank-deficient, but elimination below will tell.
		if len(mat) > 4*nCols {
			return nil
		}
	}

	// Gaussian elimination to row echelon form, tracking pivot columns.
	pivotCol := s.pivotCol[:0]
	rowUsed := 0
	for col := 0; col < nCols && rowUsed < len(mat); col++ {
		// Find pivot.
		sel := -1
		maxAbs := 1e-9
		for r := rowUsed; r < len(mat); r++ {
			if v := math.Abs(mat[r][col]); v > maxAbs {
				maxAbs = v
				sel = r
			}
		}
		if sel < 0 {
			continue
		}
		mat[rowUsed], mat[sel] = mat[sel], mat[rowUsed]
		piv := mat[rowUsed][col]
		for r := 0; r < len(mat); r++ {
			if r == rowUsed || mat[r][col] == 0 {
				continue
			}
			f := mat[r][col] / piv
			for c2 := col; c2 < nCols; c2++ {
				mat[r][c2] -= f * mat[rowUsed][c2]
			}
			mat[r][col] = 0
		}
		pivotCol = append(pivotCol, col)
		rowUsed++
	}
	s.pivotCol = pivotCol
	if rowUsed >= nCols {
		return nil // full column rank: no null space
	}
	// Pick a free column and back-substitute.
	isPivot := grow(s.isPivot, nCols)
	s.isPivot = isPivot
	clear(isPivot)
	for _, c := range pivotCol {
		isPivot[c] = true
	}
	freeCol := -1
	for c := 0; c < nCols; c++ {
		if !isPivot[c] {
			freeCol = c
			break
		}
	}
	if freeCol < 0 {
		return nil
	}
	d := grow(s.dir, nCols)
	s.dir = d
	clear(d)
	d[freeCol] = 1
	// Each pivot row determines its pivot column's value.
	for r := rowUsed - 1; r >= 0; r-- {
		c := pivotCol[r]
		sum := 0.0
		for c2 := c + 1; c2 < nCols; c2++ {
			if mat[r][c2] != 0 {
				sum += mat[r][c2] * d[c2]
			}
		}
		d[c] = -sum / mat[r][c]
	}
	return d
}
