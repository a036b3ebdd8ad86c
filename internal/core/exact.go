package core

import "flowsched/internal/switchnet"

// ExactMRTFeasible decides by exhaustive backtracking whether the instance
// admits a schedule with maximum response time at most rho under the
// original (unaugmented) port capacities. Exponential in the number of
// flows; it exists to validate the Theorem 2 reduction and the online
// lower-bound gadgets on small instances, and to cross-check the LP bound.
//
//flowsched:testonly the exact oracle of core's lemma tests and engine's TestMetamorphicMRTMatchesBruteForce
func ExactMRTFeasible(inst *switchnet.Instance, rho int) bool {
	return ExactFeasibleWindows(inst, ResponseWindows(inst, rho))
}

// ExactFeasibleWindows decides by exhaustive backtracking whether every
// flow can be scheduled within its explicit window (original capacities),
// taking the flows in deadline order for earlier pruning. Used by
// adversarial analyses that must forbid specific rounds, e.g. the Lemma
// 5.2 case analysis.
func ExactFeasibleWindows(inst *switchnet.Instance, win Windows) bool {
	for _, rounds := range win {
		if len(rounds) == 0 {
			return false
		}
	}
	order := new(workspace).deadlineOrder(win)
	loads := map[int][]int{}
	numPorts := inst.Switch.NumPorts()
	caps := inst.Switch.Caps()
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(order) {
			return true
		}
		f := order[k]
		e := inst.Flows[f]
		pIn := inst.Switch.PortIndex(switchnet.In, e.In)
		pOut := inst.Switch.PortIndex(switchnet.Out, e.Out)
		for _, t := range win[f] {
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
			if rec(k + 1) {
				return true
			}
			row[pIn] -= e.Demand
			row[pOut] -= e.Demand
		}
		return false
	}
	return rec(0)
}
