package workload

import (
	"math/rand"

	"flowsched/internal/switchnet"
)

// SmoothSequence generates the instance family behind the open problem of
// Section 6: a sequence of unit-flow requests on an m x m unit-capacity
// switch such that for every port v and every round interval I, the total
// number of flows released in I and incident on v is at most |I| + 1.
// (Fractionally such sequences are schedulable with response 1 under a +1
// augmentation; the open question is whether a constant response is always
// achievable integrally without augmentation.)
//
// Edges are sampled greedily: each round draws candidate flows and keeps
// those that preserve the interval-degree condition.
func SmoothSequence(rng *rand.Rand, m, T int) *switchnet.Instance {
	inst := &switchnet.Instance{Switch: switchnet.UnitSwitch(m)}
	// released[v][t] = number of flows released at t incident on port v
	// (global port index).
	released := make([][]int, 2*m)
	for v := range released {
		released[v] = make([]int, T)
	}
	// okToAdd reports whether adding a flow at (v, t) keeps all interval
	// sums over [a, b] containing t within (b - a + 1) + 1.
	okToAdd := func(v, t int) bool {
		for a := 0; a <= t; a++ {
			sum := 0
			for b := a; b < T; b++ {
				sum += released[v][b]
				if b >= t {
					if sum+1 > (b-a+1)+1 {
						return false
					}
				}
			}
		}
		return true
	}
	for t := 0; t < T; t++ {
		attempts := 2 * m
		for i := 0; i < attempts; i++ {
			in := rng.Intn(m)
			out := rng.Intn(m)
			vIn := in
			vOut := m + out
			if okToAdd(vIn, t) && okToAdd(vOut, t) {
				released[vIn][t]++
				released[vOut][t]++
				inst.Flows = append(inst.Flows, switchnet.Flow{
					In: in, Out: out, Demand: 1, Release: t,
				})
			}
		}
	}
	return inst
}

// CheckSmooth verifies the interval-degree condition of SmoothSequence on
// an arbitrary unit-demand instance; it returns the worst violation
// (0 means the condition holds).
//
//flowsched:testonly core's TestSmoothSequencesScheduleWithSmallRho checks its instances with it
func CheckSmooth(inst *switchnet.Instance) int {
	T := inst.MaxRelease() + 1
	numPorts := inst.Switch.NumPorts()
	released := make([][]int, numPorts)
	for v := range released {
		released[v] = make([]int, T)
	}
	for _, e := range inst.Flows {
		released[inst.Switch.PortIndex(switchnet.In, e.In)][e.Release]++
		released[inst.Switch.PortIndex(switchnet.Out, e.Out)][e.Release]++
	}
	worst := 0
	for v := 0; v < numPorts; v++ {
		for a := 0; a < T; a++ {
			sum := 0
			for b := a; b < T; b++ {
				sum += released[v][b]
				if over := sum - ((b - a + 1) + 1); over > worst {
					worst = over
				}
			}
		}
	}
	return worst
}
