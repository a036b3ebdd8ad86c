package lp

import (
	"errors"
	"math"
	"slices"
)

// ErrSingular is returned when a basis matrix cannot be factorized.
var ErrSingular = errors.New("lp: singular basis matrix")

const (
	singularTol    = 1e-12 // pivots below this magnitude make the basis singular
	pivotThreshold = 0.1   // a nucleus pivot reaches this share of its column's largest candidate
)

// luFactor is a sparse LU factorisation of a simplex basis, built straight
// from the basis' sparse columns, with solves against the basis and its
// transpose that walk stored nonzeros only. It is the kernel behind the
// revised simplex basis handling.
//
// A basis of the scheduling LPs is mostly unit slack and artificial
// columns, so factor first peels singletons, which need no arithmetic: a
// column with one entry in the rows still active is pivoted on that entry
// (its other entries land in U, it contributes nothing to L), and once no
// such column is left a row with one entry in the columns still active is
// pivoted on it (the column's other active entries become L multipliers,
// and nothing fills in because the pivot row is otherwise empty). What
// survives both passes — the nucleus — is factored left-looking, one
// column at a time (Gilbert-Peierls): columns in ascending order of
// nucleus entries, each solved against the L built so far, the pivot the
// sparsest row among the entries within pivotThreshold of the column's
// largest. Every tie goes to the lowest index, so a factorisation is a
// function of the basis alone.
//
// Pivot step k eliminated row prow[k] with the basis column at position
// pcol[k]. L and U are stored by step, compressed; a row index in either
// is a row of the basis, not a step.
type luFactor struct {
	m          int
	prow, pcol []int
	diag       []float64
	// Column pcol[k] of U above its diagonal: its entries in rows
	// pivoted before step k, at uStart[k]:uStart[k+1].
	uStart, uRow []int
	uVal         []float64
	// The steps whose L column is not empty, ascending, and for the s-th
	// of them the multipliers of the rows still active at that step, at
	// lStart[s]:lStart[s+1].
	lSteps, lStart, lRow []int
	lVal                 []float64

	tmp []float64 // solve and solveT permute through it

	// Scratch of factor.
	rowStart, rowPos []int // row-wise pattern of the basis: positions with an entry in each row
	colCnt, rowCnt   []int // entries in active rows per position; active positions per row
	rowDone, colDone []bool
	queue, pattern   []int
	work             []float64
	inPattern        []bool
}

// nnz returns the stored nonzeros of L and U, diagonal included.
func (f *luFactor) nnz() int { return len(f.lVal) + len(f.uVal) + f.m }

// factor computes the factorisation of the matrix whose column at position
// p is cols[basis[p]]. It reuses the receiver's storage.
func (f *luFactor) factor(cols []spCol, basis []int) error {
	m := len(basis)
	f.reset(m)

	// Row-wise pattern, so that pivoting a row finds the columns it
	// touches.
	rowStart := f.rowStart
	for p, j := range basis {
		f.colCnt[p] = len(cols[j].ri)
		for _, r := range cols[j].ri {
			rowStart[r+1]++
		}
	}
	for r := 0; r < m; r++ {
		rowStart[r+1] += rowStart[r]
	}
	f.rowPos = grow(f.rowPos, rowStart[m])
	fill := f.rowCnt // cursor per row for now, the row counts later
	copy(fill, rowStart[:m])
	for p, j := range basis {
		for _, r := range cols[j].ri {
			f.rowPos[fill[r]] = p
			fill[r]++
		}
	}

	// Column singletons. A position enters the queue once, when its count
	// reaches one; if the count has fallen to zero by the time it is
	// popped its last row went to another column, and the nucleus will
	// find it singular.
	queue := f.queue[:0]
	for p := range basis {
		if f.colCnt[p] == 1 {
			queue = append(queue, p)
		}
	}
	for h := 0; h < len(queue); h++ {
		p := queue[h]
		if f.colCnt[p] != 1 {
			continue
		}
		col := cols[basis[p]]
		r := -1
		for _, i := range col.ri {
			if !f.rowDone[i] {
				r = i
				break
			}
		}
		if err := f.pivotUntouched(col, p, r); err != nil {
			return err
		}
		for _, q := range f.rowPos[rowStart[r]:rowStart[r+1]] {
			if !f.colDone[q] {
				f.colCnt[q]--
				if f.colCnt[q] == 1 {
					queue = append(queue, q)
				}
			}
		}
	}

	// Row singletons, same queue discipline. Pivoting one removes a row
	// that no other active column touches, so no column singleton can
	// reappear and the column counts stay exact.
	queue = queue[:0]
	for r := 0; r < m; r++ {
		if f.rowDone[r] {
			continue
		}
		c := 0
		for _, p := range f.rowPos[rowStart[r]:rowStart[r+1]] {
			if !f.colDone[p] {
				c++
			}
		}
		f.rowCnt[r] = c
		if c == 1 {
			queue = append(queue, r)
		}
	}
	for h := 0; h < len(queue); h++ {
		r := queue[h]
		if f.rowCnt[r] != 1 {
			continue
		}
		p := -1
		for _, q := range f.rowPos[rowStart[r]:rowStart[r+1]] {
			if !f.colDone[q] {
				p = q
				break
			}
		}
		col := cols[basis[p]]
		for _, i := range col.ri {
			if i != r && !f.rowDone[i] {
				f.rowCnt[i]--
				if f.rowCnt[i] == 1 {
					queue = append(queue, i)
				}
			}
		}
		if err := f.pivotUntouched(col, p, r); err != nil {
			return err
		}
	}

	// Nucleus. A singleton step's pivot row is zero in every nucleus
	// column and stays zero under the updates, so only the nucleus' own L
	// columns (lSteps from firstL on) take part in a column's solve.
	nucleus := f.queue[:0]
	for p := range basis {
		if !f.colDone[p] {
			nucleus = append(nucleus, p)
		}
	}
	slices.SortFunc(nucleus, func(a, b int) int {
		if c := f.colCnt[a] - f.colCnt[b]; c != 0 {
			return c
		}
		return a - b
	})
	firstL := len(f.lSteps)
	work := f.work
	for _, p := range nucleus {
		col := cols[basis[p]]
		pat := f.pattern[:0]
		for k, i := range col.ri {
			work[i] = col.rv[k]
			f.inPattern[i] = true
			pat = append(pat, i)
		}
		for s := firstL; s < len(f.lSteps); s++ {
			t := work[f.prow[f.lSteps[s]]]
			if t == 0 {
				continue
			}
			for e := f.lStart[s]; e < f.lStart[s+1]; e++ {
				i := f.lRow[e]
				if !f.inPattern[i] {
					f.inPattern[i] = true
					pat = append(pat, i)
				}
				work[i] -= f.lVal[e] * t
			}
		}

		maxAbs := 0.0
		for _, i := range pat {
			if !f.rowDone[i] {
				maxAbs = math.Max(maxAbs, math.Abs(work[i]))
			}
		}
		if !(maxAbs >= singularTol) { // a NaN is singular too
			return ErrSingular
		}
		r := -1
		for _, i := range pat {
			if f.rowDone[i] || math.Abs(work[i]) < pivotThreshold*maxAbs {
				continue
			}
			if r < 0 || f.rowCnt[i] < f.rowCnt[r] || (f.rowCnt[i] == f.rowCnt[r] && i < r) {
				r = i
			}
		}
		piv := work[r]
		for _, i := range pat {
			v := work[i]
			work[i] = 0
			f.inPattern[i] = false
			switch {
			case i == r || v == 0:
			case f.rowDone[i]:
				f.uRow = append(f.uRow, i)
				f.uVal = append(f.uVal, v)
			default:
				f.lRow = append(f.lRow, i)
				f.lVal = append(f.lVal, v/piv)
			}
		}
		f.endStep(p, r, piv)
	}
	return nil
}

// pivotUntouched records the pivot step (row r, position p) of a column
// that no earlier step's L column updates — every singleton step: entries
// in rows already pivoted go to U, entries in rows still active become L
// multipliers.
func (f *luFactor) pivotUntouched(col spCol, p, r int) error {
	piv := 0.0
	for k, i := range col.ri {
		if i == r {
			piv = col.rv[k]
		}
	}
	if !(math.Abs(piv) >= singularTol) { // a NaN is singular too
		return ErrSingular
	}
	for k, i := range col.ri {
		switch {
		case i == r:
		case f.rowDone[i]:
			f.uRow = append(f.uRow, i)
			f.uVal = append(f.uVal, col.rv[k])
		default:
			f.lRow = append(f.lRow, i)
			f.lVal = append(f.lVal, col.rv[k]/piv)
		}
	}
	f.endStep(p, r, piv)
	return nil
}

// endStep closes the pivot step whose U and L entries were just appended.
func (f *luFactor) endStep(p, r int, piv float64) {
	if len(f.lRow) > f.lStart[len(f.lStart)-1] {
		f.lSteps = append(f.lSteps, len(f.prow))
		f.lStart = append(f.lStart, len(f.lRow))
	}
	f.prow = append(f.prow, r)
	f.pcol = append(f.pcol, p)
	f.diag = append(f.diag, piv)
	f.uStart = append(f.uStart, len(f.uRow))
	f.rowDone[r] = true
	f.colDone[p] = true
}

// reset empties the factorisation and sizes the scratch for order m.
func (f *luFactor) reset(m int) {
	f.m = m
	f.prow, f.pcol, f.diag = f.prow[:0], f.pcol[:0], f.diag[:0]
	f.uStart, f.uRow, f.uVal = append(f.uStart[:0], 0), f.uRow[:0], f.uVal[:0]
	f.lSteps, f.lStart, f.lRow, f.lVal = f.lSteps[:0], append(f.lStart[:0], 0), f.lRow[:0], f.lVal[:0]
	f.tmp = grow(f.tmp, m)
	f.rowStart = grow(f.rowStart, m+1)
	f.colCnt, f.rowCnt = grow(f.colCnt, m), grow(f.rowCnt, m)
	f.rowDone, f.colDone, f.inPattern = grow(f.rowDone, m), grow(f.colDone, m), grow(f.inPattern, m)
	f.work = grow(f.work, m)
	// Each pass queues an index at most once and a pattern holds a row at
	// most once, so neither outgrows m.
	f.queue, f.pattern = grow(f.queue, m)[:0], grow(f.pattern, m)[:0]
	clear(f.rowStart)
	clear(f.rowDone)
	clear(f.colDone)
	clear(f.inPattern)
	clear(f.work)
}

// grow returns s with length n, reallocating only when its capacity is
// short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// solve solves B x = b in place: b is indexed by row on entry and by basis
// position on return.
func (f *luFactor) solve(b []float64) {
	m := f.m
	prow, pcol, diag, uStart := f.prow[:m], f.pcol[:m], f.diag[:m], f.uStart[:m+1]
	lStart, lRow, lVal, uRow, uVal := f.lStart[:len(f.lSteps)+1], f.lRow, f.lVal, f.uRow, f.uVal
	for s, k := range f.lSteps {
		t := b[prow[k]]
		if t == 0 {
			continue
		}
		// Cut to rows' length, vals needs no bounds check in the loop.
		rows := lRow[lStart[s]:lStart[s+1]]
		vals := lVal[lStart[s]:lStart[s+1]]
		vals = vals[:len(rows)]
		for e, i := range rows {
			b[i] -= vals[e] * t
		}
	}
	x := f.tmp[:m]
	for k := m - 1; k >= 0; k-- {
		t := b[prow[k]]
		if t != 0 {
			t /= diag[k]
			rows := uRow[uStart[k]:uStart[k+1]]
			vals := uVal[uStart[k]:uStart[k+1]]
			vals = vals[:len(rows)]
			for e, i := range rows {
				b[i] -= vals[e] * t
			}
		}
		x[pcol[k]] = t
	}
	copy(b, x)
}

// solveT solves B^T y = c in place: c is indexed by basis position on
// entry and by row on return.
func (f *luFactor) solveT(c []float64) {
	m := f.m
	prow, pcol, diag, uStart := f.prow[:m], f.pcol[:m], f.diag[:m], f.uStart[:m+1]
	lStart, lRow, lVal, uRow, uVal := f.lStart[:len(f.lSteps)+1], f.lRow, f.lVal, f.uRow, f.uVal
	y := f.tmp[:m]
	for k := 0; k < m; k++ {
		t := c[pcol[k]]
		rows := uRow[uStart[k]:uStart[k+1]]
		vals := uVal[uStart[k]:uStart[k+1]]
		vals = vals[:len(rows)]
		for e, i := range rows {
			t -= vals[e] * y[i]
		}
		y[prow[k]] = t / diag[k]
	}
	for s := len(f.lSteps) - 1; s >= 0; s-- {
		r := prow[f.lSteps[s]]
		t := y[r]
		rows := lRow[lStart[s]:lStart[s+1]]
		vals := lVal[lStart[s]:lStart[s+1]]
		vals = vals[:len(rows)]
		for e, i := range rows {
			t -= vals[e] * y[i]
		}
		y[r] = t
	}
	copy(c, y)
}
