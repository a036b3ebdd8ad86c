package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// dualIdentityHolds verifies the strong-duality identity at the returned
// basis: obj = y.b - sum_i y_i * slack_i + sum_j d_j * x_j, together with
// dual feasibility sign conditions (reduced costs d_j >= 0 at lower
// bounds, <= 0 at upper bounds; y_i <= 0 on slack LE rows, >= 0 on GE).
func dualIdentityHolds(p *Problem, sol *Solution) bool {
	if sol.Status != Optimal || sol.Dual == nil {
		return false
	}
	y := sol.Dual
	// Reduced costs of structural variables.
	d := make([]float64, p.n)
	for j := 0; j < p.n; j++ {
		d[j] = p.cost[j]
	}
	for i := range p.rows {
		idx, val := p.entries(i)
		for k, j := range idx {
			d[j] -= y[i] * val[k]
		}
	}
	const tol = 1e-6
	rhs := 0.0
	for i, r := range p.rows {
		slack := r.rhs - p.RowActivity(sol.X, i)
		rhs += y[i]*r.rhs - y[i]*slack
		// Complementary slackness / dual sign by row sense.
		switch r.sense {
		case LE:
			if y[i] > tol {
				return false
			}
			if slack > tol && math.Abs(y[i]) > tol {
				return false
			}
		case GE:
			if y[i] < -tol {
				return false
			}
			if slack < -tol && math.Abs(y[i]) > tol {
				return false
			}
		}
	}
	lhsRest := 0.0
	for j := 0; j < p.n; j++ {
		lhsRest += d[j] * sol.X[j]
		// Dual feasibility at the variable's position.
		atLower := math.Abs(sol.X[j]-p.lower[j]) < 1e-6
		atUpper := !math.IsInf(p.upper[j], 1) && math.Abs(sol.X[j]-p.upper[j]) < 1e-6
		if !atLower && !atUpper { // basic / interior
			if math.Abs(d[j]) > 1e-5 {
				return false
			}
		} else if atLower && !atUpper && d[j] < -1e-5 {
			return false
		} else if atUpper && !atLower && d[j] > 1e-5 {
			return false
		}
	}
	return math.Abs(sol.Obj-(rhs+lhsRest)) < 1e-5*(1+math.Abs(sol.Obj))
}

func TestDualsOnKnownLP(t *testing.T) {
	// min -x - 2y s.t. x + y <= 4, y <= 2: optimum (2,2), duals known:
	// row1 tight with y1 = -1, row2 tight with y2 = -1.
	p := NewProblem(2)
	p.SetCost(0, -1)
	p.SetCost(1, -2)
	p.AddRow([]int{0, 1}, []float64{1, 1}, LE, 4)
	p.AddRow([]int{1}, []float64{1}, LE, 2)
	sol := solveOK(t, p)
	if !dualIdentityHolds(p, sol) {
		t.Fatalf("duality identity failed: duals %v", sol.Dual)
	}
	if math.Abs(sol.Dual[0]+1) > 1e-7 || math.Abs(sol.Dual[1]+1) > 1e-7 {
		t.Fatalf("duals = %v, want [-1 -1]", sol.Dual)
	}
}

func TestDualsOnEqualityLP(t *testing.T) {
	p := NewProblem(2)
	p.SetCost(0, 3)
	p.SetCost(1, 5)
	p.AddRow([]int{0, 1}, []float64{1, 1}, EQ, 4)
	sol := solveOK(t, p)
	// All mass on the cheap variable; dual of the equality = 3.
	if math.Abs(sol.Dual[0]-3) > 1e-7 {
		t.Fatalf("dual = %v, want 3", sol.Dual[0])
	}
}

// Property: the strong-duality identity and sign conditions hold on random
// feasible LPs (certifying optimality independently of the primal path).
func TestQuickDualCertificates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		p := NewProblem(n)
		anchor := make([]float64, n)
		for j := 0; j < n; j++ {
			p.SetCost(j, float64(rng.Intn(9)-4))
			p.SetBounds(j, 0, float64(1+rng.Intn(4)))
			anchor[j] = rng.Float64() * p.upper[j]
		}
		for r := 0; r < rng.Intn(4); r++ {
			var idx []int
			var val []float64
			act := 0.0
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					c := float64(rng.Intn(5) - 2)
					idx = append(idx, j)
					val = append(val, c)
					act += c * anchor[j]
				}
			}
			if len(idx) == 0 {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				p.AddRow(idx, val, LE, act+rng.Float64())
			case 1:
				p.AddRow(idx, val, GE, act-rng.Float64())
			default:
				p.AddRow(idx, val, EQ, act)
			}
		}
		if p.NumRows() == 0 {
			return true // unconstrained path has no duals
		}
		sol, err := p.Solve()
		if err != nil || sol.Status != Optimal {
			return sol != nil && sol.Status != Optimal // infeasible draws are fine
		}
		return dualIdentityHolds(p, sol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
