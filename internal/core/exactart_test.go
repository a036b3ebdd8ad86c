package core

import (
	"math/rand"
	"testing"

	"flowsched/internal/switchnet"
)

// ExactARTOptimal computes the exact minimum total response time of an
// instance by branch and bound over schedules within maxRho rounds of each
// flow's release (original capacities). Exponential; used to certify that
// ARTLowerBound is a true lower bound and to measure its gap on tiny
// instances. It returns -1 if no schedule fits within maxRho.
func ExactARTOptimal(inst *switchnet.Instance, maxRho int) int {
	n := inst.N()
	if n == 0 {
		return 0
	}
	loads := map[int][]int{}
	numPorts := inst.Switch.NumPorts()
	caps := inst.Switch.Caps()
	best := -1
	var rec func(f, sum int)
	rec = func(f, sum int) {
		if best >= 0 && sum+(n-f) >= best {
			return // each remaining flow adds >= 1
		}
		if f == n {
			best = sum
			return
		}
		e := inst.Flows[f]
		pIn := inst.Switch.PortIndex(switchnet.In, e.In)
		pOut := inst.Switch.PortIndex(switchnet.Out, e.Out)
		for t := e.Release; t < e.Release+maxRho; t++ {
			row, ok := loads[t]
			if !ok {
				row = make([]int, numPorts)
				loads[t] = row
			}
			if row[pIn]+e.Demand > caps[pIn] || row[pOut]+e.Demand > caps[pOut] {
				continue
			}
			row[pIn] += e.Demand
			row[pOut] += e.Demand
			rec(f+1, sum+t+1-e.Release)
			row[pIn] -= e.Demand
			row[pOut] -= e.Demand
		}
	}
	rec(0, 0)
	return best
}

// TestARTLowerBoundBelowExactOptimum cross-validates LP (1)-(4) against
// exhaustive search: the LP is always at most the true optimum, and the
// true optimum is at most what the greedy schedule achieves.
func TestARTLowerBoundBelowExactOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	gaps := 0.0
	trials := 0
	for trial := 0; trial < 12; trial++ {
		inst := &switchnet.Instance{Switch: switchnet.UnitSwitch(2)}
		n := 2 + rng.Intn(5)
		for i := 0; i < n; i++ {
			inst.Flows = append(inst.Flows, switchnet.Flow{
				In: rng.Intn(2), Out: rng.Intn(2), Demand: 1, Release: rng.Intn(3),
			})
		}
		opt := ExactARTOptimal(inst, n+3)
		if opt < 0 {
			t.Fatalf("trial %d: no schedule within rho=%d", trial, n+3)
		}
		lb, err := ARTLowerBound(inst)
		if err != nil {
			t.Fatal(err)
		}
		if lb.TotalResponse > float64(opt)+1e-6 {
			t.Fatalf("trial %d: LP %v exceeds exact optimum %d", trial, lb.TotalResponse, opt)
		}
		greedy := greedyEarliest(inst)
		if gt := greedy.TotalResponse(inst); gt < opt {
			t.Fatalf("trial %d: greedy %d beats 'optimal' %d — exact solver broken", trial, gt, opt)
		}
		gaps += float64(opt) / lb.TotalResponse
		trials++
	}
	// The LP's integrality+offset gap on tiny unit instances stays small
	// (empirically < 2.5); a blowup would signal a broken LP model.
	if avg := gaps / float64(trials); avg > 2.5 {
		t.Fatalf("average OPT/LP gap %v implausibly large", avg)
	}
}

// TestSRPTBoundBelowExactOptimum does the same for the combinatorial bound.
func TestSRPTBoundBelowExactOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 12; trial++ {
		inst := &switchnet.Instance{Switch: switchnet.UnitSwitch(2)}
		n := 2 + rng.Intn(5)
		for i := 0; i < n; i++ {
			inst.Flows = append(inst.Flows, switchnet.Flow{
				In: rng.Intn(2), Out: rng.Intn(2), Demand: 1, Release: rng.Intn(3),
			})
		}
		opt := ExactARTOptimal(inst, n+3)
		if lb := SRPTLowerBound(inst); lb > opt {
			t.Fatalf("trial %d: SRPT bound %d exceeds exact optimum %d", trial, lb, opt)
		}
	}
}

func TestExactARTOptimalKnown(t *testing.T) {
	// Two flows sharing both ports: responses 1 and 2 => optimum 3.
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(1),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 0, Out: 0, Demand: 1, Release: 0},
		},
	}
	if got := ExactARTOptimal(inst, 4); got != 3 {
		t.Fatalf("optimum = %d, want 3", got)
	}
	if got := ExactARTOptimal(inst, 1); got != -1 {
		t.Fatalf("optimum = %d, want -1 (cannot fit in rho=1)", got)
	}
	if got := ExactARTOptimal(&switchnet.Instance{Switch: switchnet.UnitSwitch(1)}, 1); got != 0 {
		t.Fatalf("empty optimum = %d", got)
	}
}
