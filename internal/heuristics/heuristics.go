// Package heuristics implements the online scheduling policies evaluated
// in Section 5.2 of the paper — MaxCard (maximum-cardinality matching),
// MinRTime (maximum-weight matching by flow age) and MaxWeight
// (maximum-weight matching by endpoint queue sizes). On unit-demand
// instances selections are exact matchings (via max-flow /
// min-cost-flow); with general demands the policies fall back to
// weight-ordered first-fit, since per-round demand matching is NP-hard.
//
//flowsched:deterministic
package heuristics

import (
	"sort"

	"flowsched/internal/matching"
	"flowsched/internal/sim"
)

// MaxCard schedules a maximum-cardinality feasible set each round,
// maximizing port utilization. The paper expects it to do well on average
// response time and poorly on maximum response time.
type MaxCard struct{}

// Name implements sim.Policy.
func (MaxCard) Name() string { return "MaxCard" }

// Pick implements sim.Policy.
func (MaxCard) Pick(s *sim.State) []int {
	if allUnit(s) {
		edges := pendingEdges(s, func(p sim.Pending) int { return 0 })
		return matching.CapacitatedMaxCardinality(s.Switch.InCaps, s.Switch.OutCaps, edges)
	}
	// General demands: first-fit by arrival order maximizes count greedily.
	return firstFit(s, func(a, b sim.Pending) bool {
		if a.Demand != b.Demand {
			return a.Demand < b.Demand
		}
		return a.Release < b.Release
	})
}

// MinRTime schedules a maximum-weight feasible set where a flow's weight is
// its age t - r_e (+1 so fresh flows still count): the longer a flow has
// waited, the higher its priority. Best for maximum response time.
type MinRTime struct{}

// Name implements sim.Policy.
func (MinRTime) Name() string { return "MinRTime" }

// Pick implements sim.Policy.
func (MinRTime) Pick(s *sim.State) []int {
	age := func(p sim.Pending) int { return s.Round - p.Release + 1 }
	if allUnit(s) {
		edges := pendingEdges(s, age)
		return matching.CapacitatedMaxWeight(s.Switch.InCaps, s.Switch.OutCaps, edges)
	}
	return firstFit(s, func(a, b sim.Pending) bool { return age(a) > age(b) })
}

// MaxWeight schedules a maximum-weight feasible set where a flow's weight
// is the sum of the queue sizes at its two endpoints — the classic
// max-weight crossbar policy. The paper's compromise choice.
type MaxWeight struct{}

// Name implements sim.Policy.
func (MaxWeight) Name() string { return "MaxWeight" }

// Pick implements sim.Policy.
func (MaxWeight) Pick(s *sim.State) []int {
	weight := func(p sim.Pending) int { return s.QueueIn[p.In] + s.QueueOut[p.Out] }
	if allUnit(s) {
		edges := pendingEdges(s, weight)
		return matching.CapacitatedMaxWeight(s.Switch.InCaps, s.Switch.OutCaps, edges)
	}
	return firstFit(s, func(a, b sim.Pending) bool { return weight(a) > weight(b) })
}

// allUnit reports whether every pending flow has unit demand.
func allUnit(s *sim.State) bool {
	for _, p := range s.Pending {
		if p.Demand != 1 {
			return false
		}
	}
	return true
}

// pendingEdges converts the pending list into matching edges with the given
// weight function.
func pendingEdges(s *sim.State, weight func(sim.Pending) int) []matching.Edge {
	edges := make([]matching.Edge, len(s.Pending))
	for i, p := range s.Pending {
		edges[i] = matching.Edge{L: p.In, R: p.Out, Weight: weight(p)}
	}
	return edges
}

// firstFit picks flows in the order given by less, taking each flow whose
// ports still have room. It handles arbitrary demands.
func firstFit(s *sim.State, less func(a, b sim.Pending) bool) []int {
	order := make([]int, len(s.Pending))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return less(s.Pending[order[x]], s.Pending[order[y]]) })
	loadIn := make([]int, s.Switch.NumIn())
	loadOut := make([]int, s.Switch.NumOut())
	var picks []int
	for _, i := range order {
		p := s.Pending[i]
		if loadIn[p.In]+p.Demand <= s.Switch.InCaps[p.In] && loadOut[p.Out]+p.Demand <= s.Switch.OutCaps[p.Out] {
			loadIn[p.In] += p.Demand
			loadOut[p.Out] += p.Demand
			picks = append(picks, i)
		}
	}
	return picks
}
