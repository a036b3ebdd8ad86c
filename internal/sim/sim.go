// Package sim is the interface of Section 5.2.1's online heuristics: the
// State a Policy sees each round (the open queue G_t and the port queue
// sizes), the Policy that picks a feasible subset, and the Result of
// replaying a finite instance. The round loop is internal/stream's
// runtime (Bridge, Replay).
//
//flowsched:deterministic
package sim

import "flowsched/internal/switchnet"

// Pending describes one released, not-yet-scheduled flow offered to a
// Policy.
type Pending struct {
	// Flow identifies the flow: its admission position in the runtime,
	// its rank in (release, index) order, not its index in the instance.
	Flow int
	// In and Out are the flow's ports; Demand its size; Release its
	// release round.
	In, Out, Demand, Release int
}

// State is the per-round view a Policy selects from.
type State struct {
	// Round is the current round t.
	Round int
	// Switch describes port counts and capacities.
	Switch switchnet.Switch
	// Pending lists the flows available for scheduling, in admission
	// order (release order, ties by flow index). The "open queue" of the
	// paper: any subset obeying port capacities may be selected.
	Pending []Pending
	// QueueIn[i] and QueueOut[j] are the numbers of pending flows
	// touching input port i / output port j (the queue sizes used by the
	// MaxWeight heuristic).
	QueueIn, QueueOut []int
}

// Policy selects, each round, a capacity-feasible subset of pending flows.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Pick returns indices into s.Pending to schedule in round s.Round.
	// The runtime validates feasibility and fails the run on a violation.
	Pick(s *State) []int
}

// Result summarizes one policy's replay of a finite instance.
type Result struct {
	// Schedule holds the per-flow rounds chosen by the policy.
	Schedule *switchnet.Schedule
	// TotalResponse, AvgResponse and MaxResponse are the paper's metrics.
	TotalResponse int
	AvgResponse   float64
	MaxResponse   int
	// Rounds is one past the last scheduled round.
	Rounds int
}
