package core_test

import (
	"errors"
	"fmt"

	"flowsched/internal/core"
	"flowsched/internal/switchnet"
)

// ExampleDeadlineWindows solves the deadline model of Remark 4.2: every
// flow is scheduled inside its window, or the windows are reported
// infeasible.
func ExampleDeadlineWindows() {
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 1, Release: 0},
		},
	}
	win, _ := core.DeadlineWindows(inst, []int{1, 1})
	res, err := core.SolveTimeConstrained(inst, win)
	fmt.Println("feasible:", err == nil)
	fmt.Println("complete:", res.Schedule.Complete())
	// Both flows need output 0 in round 0.
	tight, _ := core.DeadlineWindows(inst, []int{0, 0})
	_, err = core.SolveTimeConstrained(inst, tight)
	fmt.Println("tightened windows infeasible:", errors.Is(err, core.ErrInfeasible))
	// Output:
	// feasible: true
	// complete: true
	// tightened windows infeasible: true
}
