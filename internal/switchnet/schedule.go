package switchnet

import "fmt"

// Unscheduled marks a flow that has not been assigned a round.
const Unscheduled = -1

// Schedule assigns each flow of an instance to a single round.
// Round[f] is the round in which flow f runs, or Unscheduled.
//
// Following the paper's convention (Section 2), a flow scheduled in round t
// completes at C_e = t + 1, so its response time is t + 1 - r_e.
type Schedule struct {
	Round []int
}

// NewSchedule returns a schedule with all n flows unscheduled.
func NewSchedule(n int) *Schedule {
	r := make([]int, n)
	for i := range r {
		r[i] = Unscheduled
	}
	return &Schedule{Round: r}
}

// Complete reports whether every flow has been assigned a round.
func (s *Schedule) Complete() bool {
	for _, t := range s.Round {
		if t == Unscheduled {
			return false
		}
	}
	return true
}

// Makespan returns one past the last used round, or 0 for an empty schedule.
func (s *Schedule) Makespan() int {
	m := 0
	for _, t := range s.Round {
		if t != Unscheduled && t+1 > m {
			m = t + 1
		}
	}
	return m
}

// ResponseTime returns rho_f = Round[f] + 1 - r_f for flow f of inst.
// It panics if the flow is unscheduled.
func (s *Schedule) ResponseTime(inst *Instance, f int) int {
	t := s.Round[f]
	if t == Unscheduled {
		panic(fmt.Sprintf("switchnet: flow %d is unscheduled", f))
	}
	return t + 1 - inst.Flows[f].Release
}

// TotalResponse returns the sum of response times over all flows.
func (s *Schedule) TotalResponse(inst *Instance) int {
	total := 0
	for f := range s.Round {
		total += s.ResponseTime(inst, f)
	}
	return total
}

// AvgResponse returns the average response time, or 0 for an empty instance.
func (s *Schedule) AvgResponse(inst *Instance) float64 {
	if len(s.Round) == 0 {
		return 0
	}
	return float64(s.TotalResponse(inst)) / float64(len(s.Round))
}

// MaxResponse returns the maximum response time over all flows, or 0 for an
// empty instance.
func (s *Schedule) MaxResponse(inst *Instance) int {
	m := 0
	for f := range s.Round {
		if r := s.ResponseTime(inst, f); r > m {
			m = r
		}
	}
	return m
}

// ScaleCaps returns capacities multiplied by factor (for "(1+c) times the
// capacity" style augmentation).
func ScaleCaps(caps []int, factor int) []int {
	out := make([]int, len(caps))
	for i, c := range caps {
		out[i] = c * factor
	}
	return out
}

// AddCaps returns capacities increased by delta (for "+2*d_max-1" style
// augmentation).
func AddCaps(caps []int, delta int) []int {
	out := make([]int, len(caps))
	for i, c := range caps {
		out[i] = c + delta
	}
	return out
}
