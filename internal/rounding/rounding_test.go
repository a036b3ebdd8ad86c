package rounding

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// NewSystem returns an empty system over numVars variables.
func NewSystem(numVars int) *System {
	s := new(System)
	s.Reset(numVars)
	return s
}

func activity(idx []int, coef []float64, x []float64) float64 {
	s := 0.0
	for k, j := range idx {
		s += coef[k] * x[j]
	}
	return s
}

func TestRoundAlreadyIntegral(t *testing.T) {
	s := NewSystem(3)
	s.AddRow([]int{0, 1, 2}, []float64{1, 1, 1}, Upper, 2)
	res := s.Round([]float64{1, 0, 1})
	if res.ForcedDrops != 0 {
		t.Fatalf("forced drops = %d", res.ForcedDrops)
	}
	want := []float64{1, 0, 1}
	for j := range want {
		if res.X[j] != want[j] {
			t.Fatalf("X = %v", res.X)
		}
	}
}

func TestRoundSingleSplitVariablePair(t *testing.T) {
	// One flow split 0.5/0.5 across two rounds; lower row budget 1 forces
	// at least one of the two to round to 1.
	s := NewSystem(2)
	s.AddRow([]int{0, 1}, []float64{1, 1}, Lower, 1)
	res := s.Round([]float64{0.5, 0.5})
	if res.X[0]+res.X[1] < 1 {
		t.Fatalf("assignment lost: %v", res.X)
	}
	for _, v := range res.X {
		if v != 0 && v != 1 {
			t.Fatalf("non-integral output %v", res.X)
		}
	}
}

func TestUpperBudgetRespected(t *testing.T) {
	// Three half-variables with capacity activity 1.5 and budget 2:
	// rounded activity must stay < 1.5+2 = 3.5, i.e. <= 3.
	s := NewSystem(3)
	idx := []int{0, 1, 2}
	coef := []float64{1, 1, 1}
	s.AddRow(idx, coef, Upper, 2)
	res := s.Round([]float64{0.5, 0.5, 0.5})
	if a := activity(idx, coef, res.X); a >= 3.5 {
		t.Fatalf("activity %v >= 3.5", a)
	}
}

// buildScheduleLikeSystem mimics the Theorem 3 structure: nFlows flows each
// fractionally spread over nRounds rounds; each (flow, round) variable
// loads two port-rounds. Returns the system, variable demands, per-flow
// variable lists and per-port-round rows.
type schedSys struct {
	sys      *System
	x        []float64
	flowVars [][]int
	capIdx   [][]int
	capCoef  [][]float64
	capBase  []float64
	dmax     float64
}

func buildScheduleLike(rng *rand.Rand, nFlows, nRounds, nPorts int, maxDemand int) *schedSys {
	type pr struct{ port, round int }
	capVars := make(map[pr][]int)
	capCoefs := make(map[pr][]float64)
	var x []float64
	var demands []float64
	flowVars := make([][]int, nFlows)
	dmax := 0.0
	for f := 0; f < nFlows; f++ {
		d := float64(1 + rng.Intn(maxDemand))
		if d > dmax {
			dmax = d
		}
		p := rng.Intn(nPorts)
		q := nPorts + rng.Intn(nPorts)
		// Random fractional split over rounds summing to 1.
		weights := make([]float64, nRounds)
		tot := 0.0
		for t := range weights {
			weights[t] = rng.Float64()
			tot += weights[t]
		}
		for t := 0; t < nRounds; t++ {
			j := len(x)
			x = append(x, weights[t]/tot)
			demands = append(demands, d)
			flowVars[f] = append(flowVars[f], j)
			for _, port := range []int{p, q} {
				key := pr{port, t}
				capVars[key] = append(capVars[key], j)
				capCoefs[key] = append(capCoefs[key], d)
			}
		}
	}
	sys := NewSystem(len(x))
	for f := 0; f < nFlows; f++ {
		coef := make([]float64, len(flowVars[f]))
		for i := range coef {
			coef[i] = 1
		}
		sys.AddRow(flowVars[f], coef, Lower, 1)
	}
	ss := &schedSys{sys: sys, x: x, flowVars: flowVars, dmax: dmax}
	for key, vars := range capVars {
		coefs := capCoefs[key]
		sys.AddRow(vars, coefs, Upper, 2*dmax)
		ss.capIdx = append(ss.capIdx, vars)
		ss.capCoef = append(ss.capCoef, coefs)
		ss.capBase = append(ss.capBase, activity(vars, coefs, x))
	}
	return ss
}

// Property: on schedule-shaped systems, every flow keeps at least one
// chosen round and every port-round activity grows by < 2*dmax. This is
// exactly the guarantee Theorem 3 needs from Lemma 4.3.
func TestQuickScheduleLikeGuarantees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nFlows := 1 + rng.Intn(12)
		nRounds := 1 + rng.Intn(4)
		nPorts := 1 + rng.Intn(4)
		ss := buildScheduleLike(rng, nFlows, nRounds, nPorts, 3)
		res := ss.sys.Round(ss.x)
		// Integrality.
		for _, v := range res.X {
			if v != 0 && v != 1 {
				return false
			}
		}
		// Every flow scheduled at least once.
		for _, vars := range ss.flowVars {
			sum := 0.0
			for _, j := range vars {
				sum += res.X[j]
			}
			if sum < 1 {
				return false
			}
		}
		// Capacity rows within budget.
		for i := range ss.capIdx {
			a := activity(ss.capIdx[i], ss.capCoef[i], res.X)
			if a >= ss.capBase[i]+2*ss.dmax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// Forced drops should never occur on schedule-shaped systems derived from
// genuinely fractional points (the counting argument of Lemma 4.3).
func TestNoForcedDropsOnScheduleSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	total := 0
	for trial := 0; trial < 60; trial++ {
		ss := buildScheduleLike(rng, 2+rng.Intn(15), 1+rng.Intn(5), 1+rng.Intn(5), 4)
		res := ss.sys.Round(ss.x)
		total += res.ForcedDrops
	}
	if total != 0 {
		t.Fatalf("forced drops = %d, want 0", total)
	}
}

func TestLowerRowNearIntegralInput(t *testing.T) {
	// x already nearly integral: nothing should change.
	s := NewSystem(2)
	s.AddRow([]int{0, 1}, []float64{1, 1}, Lower, 1)
	res := s.Round([]float64{1 - 1e-12, 1e-12})
	if res.X[0] != 1 || res.X[1] != 0 {
		t.Fatalf("X = %v", res.X)
	}
}

func TestEmptySystem(t *testing.T) {
	s := NewSystem(3)
	res := s.Round([]float64{0.3, 0.7, 0.5})
	for _, v := range res.X {
		if v != 0 && v != 1 {
			t.Fatalf("non-integral %v", res.X)
		}
	}
	// Nearest rounding applies when no rows constrain.
	if res.X[0] != 0 || res.X[1] != 1 {
		t.Fatalf("nearest rounding broken: %v", res.X)
	}
}

func TestAddRowPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSystem(2).AddRow([]int{0}, []float64{1, 2}, Upper, 1)
}

// Property: null-space walking preserves active equality structure — the
// total assignment mass of each flow never drifts past its budget even with
// many overlapping capacity rows.
func TestQuickMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		s := NewSystem(n)
		x := make([]float64, n)
		for j := range x {
			x[j] = rng.Float64()
		}
		// A handful of random upper rows with generous budgets; record
		// each row so its guarantee can be verified after rounding.
		type rowCheck struct {
			idx    []int
			coef   []float64
			base   float64
			budget float64
		}
		var checks []rowCheck
		for r := 0; r < 1+rng.Intn(5); r++ {
			var idx []int
			var coef []float64
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					idx = append(idx, j)
					coef = append(coef, float64(1+rng.Intn(3)))
				}
			}
			if len(idx) == 0 {
				continue
			}
			budget := 3.0 + rng.Float64()*3
			s.AddRow(idx, coef, Upper, budget)
			checks = append(checks, rowCheck{idx, coef, activity(idx, coef, x), budget})
		}
		res := s.Round(x)
		for _, v := range res.X {
			if v != 0 && v != 1 {
				return false
			}
		}
		for _, c := range checks {
			if activity(c.idx, c.coef, res.X) >= c.base+c.budget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAdverseComputation(t *testing.T) {
	s := NewSystem(2)
	r := sysRow{idx: []int{0, 1}, coef: []float64{2, 3}, kind: Upper, budget: 10}
	cur := []float64{0.25, 0.5}
	frac := []bool{true, true}
	// Upper adverse: 2*(0.75) + 3*(0.5) = 3.
	if got := s.adverse(r, cur, frac); math.Abs(got-3) > 1e-12 {
		t.Fatalf("adverse = %v, want 3", got)
	}
	r.kind = Lower
	// Lower adverse: 2*0.25 + 3*0.5 = 2.
	if got := s.adverse(r, cur, frac); math.Abs(got-2) > 1e-12 {
		t.Fatalf("adverse = %v, want 2", got)
	}
}

// TestResetSystemRoundsAsFresh: one System, Reset and refilled for
// schedule-shaped systems of growing, then shrinking, sizes, rounds each
// exactly as a fresh System does — every entry of X and the forced drops —
// and, holding the last one again, Round allocates nothing.
func TestResetSystemRoundsAsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var systems []*schedSys
	for _, n := range []int{2, 6, 12, 15, 9, 4} {
		systems = append(systems, buildScheduleLike(rng, n, 1+rng.Intn(5), 1+rng.Intn(5), 3))
	}
	var reused System
	refill := func(ss *schedSys) {
		reused.Reset(ss.sys.numVars)
		for _, r := range ss.sys.rows {
			reused.AddRow(r.idx, r.coef, r.kind, r.budget)
		}
	}
	for i, ss := range systems {
		fresh := ss.sys.Round(ss.x)
		refill(ss)
		got := reused.Round(ss.x)
		if got.ForcedDrops != fresh.ForcedDrops || len(got.X) != len(fresh.X) {
			t.Fatalf("system %d: reused %+v, fresh %+v", i, got, fresh)
		}
		for j := range got.X {
			if math.Float64bits(got.X[j]) != math.Float64bits(fresh.X[j]) {
				t.Fatalf("system %d: reused X %v, fresh %v", i, got.X, fresh.X)
			}
		}
	}
	last := systems[len(systems)-1]
	if n := testing.AllocsPerRun(10, func() { refill(last); reused.Round(last.x) }); n != 0 {
		t.Errorf("%v allocations refilling and rounding a system the System has held, want 0", n)
	}
}
