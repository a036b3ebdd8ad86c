package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// denseLU is the dense LU with partial pivoting the solver shipped with
// before the sparse factorisation replaced it, kept as the reference the
// differential tests compare luFactor against.
type denseLU struct {
	n    int
	lu   []float64 // row-major combined L (unit diagonal) and U
	perm []int     // row permutation: solving uses b[perm[i]]
}

// factorizeDense computes the LU factorization of the dense row-major
// matrix a (a copy is taken).
func factorizeDense(n int, a []float64) (*denseLU, error) {
	f := &denseLU{n: n, lu: append([]float64(nil), a...), perm: make([]int, n)}
	for i := range f.perm {
		f.perm[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		p := k
		maxAbs := math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > maxAbs {
				maxAbs = v
				p = i
			}
		}
		if maxAbs < 1e-12 {
			return nil, ErrSingular
		}
		if p != k {
			f.perm[k], f.perm[p] = f.perm[p], f.perm[k]
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			row := lu[i*n : i*n+n]
			prow := lu[k*n : k*n+n]
			for j := k + 1; j < n; j++ {
				row[j] -= m * prow[j]
			}
		}
	}
	return f, nil
}

// solve solves A x = b in place.
func (f *denseLU) solve(b []float64) {
	n := f.n
	tmp := make([]float64, n)
	for i := 0; i < n; i++ {
		tmp[i] = b[f.perm[i]]
	}
	for i := 1; i < n; i++ {
		s := tmp[i]
		row := f.lu[i*n : i*n+n]
		for j := 0; j < i; j++ {
			s -= row[j] * tmp[j]
		}
		tmp[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := tmp[i]
		row := f.lu[i*n : i*n+n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * tmp[j]
		}
		tmp[i] = s / row[i]
	}
	copy(b, tmp)
}

// solveT solves A^T x = b in place.
func (f *denseLU) solveT(b []float64) {
	n := f.n
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= f.lu[j*n+i] * b[j]
		}
		b[i] = s / f.lu[i*n+i]
	}
	for i := n - 2; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[j*n+i] * b[j]
		}
		b[i] = s
	}
	tmp := make([]float64, n)
	for i := 0; i < n; i++ {
		tmp[f.perm[i]] = b[i]
	}
	copy(b, tmp)
}

// sparseColumns returns the columns of the dense row-major n x n matrix a
// and the identity basis over them.
func sparseColumns(n int, a []float64) ([]spCol, []int) {
	cols := make([]spCol, n)
	for j := range cols {
		for i := 0; i < n; i++ {
			if v := a[i*n+j]; v != 0 {
				cols[j].ri = append(cols[j].ri, i)
				cols[j].rv = append(cols[j].rv, v)
			}
		}
	}
	return cols, identityBasis(n)
}

// factorize runs the sparse factorisation on a dense row-major matrix.
func factorize(n int, a []float64) (*luFactor, error) {
	f := new(luFactor)
	cols, basis := sparseColumns(n, a)
	if err := f.factor(cols, basis); err != nil {
		return nil, err
	}
	return f, nil
}

func TestLUSolveKnown(t *testing.T) {
	// A = [[2,1],[1,3]], b = [5,10] => x = [1,3].
	f, err := factorize(2, []float64{2, 1, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{5, 10}
	f.solve(b)
	if math.Abs(b[0]-1) > 1e-12 || math.Abs(b[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", b)
	}
}

func TestLUSolveTransposed(t *testing.T) {
	// A^T x = b with A = [[2,1],[0,3]]: A^T = [[2,0],[1,3]].
	f, err := factorize(2, []float64{2, 1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{4, 7}
	f.solveT(b)
	// 2x0 = 4 => x0 = 2; x0 + 3x1 = 7 => x1 = 5/3.
	if math.Abs(b[0]-2) > 1e-12 || math.Abs(b[1]-5.0/3) > 1e-12 {
		t.Fatalf("x = %v, want [2 1.667]", b)
	}
}

func TestLUSingular(t *testing.T) {
	if _, err := factorize(2, []float64{1, 2, 2, 4}); err == nil {
		t.Fatal("singular matrix accepted")
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	f, err := factorize(2, []float64{0, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{3, 7}
	f.solve(b)
	if math.Abs(b[0]-7) > 1e-12 || math.Abs(b[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [7 3]", b)
	}
}

// Property: for random well-conditioned matrices, solve and solveT invert
// matrix-vector products.
func TestQuickLURoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := make([]float64, n*n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		// Diagonal dominance for conditioning.
		for i := 0; i < n; i++ {
			a[i*n+i] += float64(n) + 1
		}
		fac, err := factorize(n, a)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// b = A x.
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += a[i*n+j] * x[j]
			}
		}
		fac.solve(b)
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-8 {
				return false
			}
		}
		// bT = A^T x.
		bt := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				bt[i] += a[j*n+i] * x[j]
			}
		}
		fac.solveT(bt)
		for i := range x {
			if math.Abs(bt[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
