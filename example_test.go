package flowsched_test

import (
	"fmt"
	"math/rand"

	flowsched "flowsched"
	"flowsched/internal/workload"
)

// ExampleSolveMRT schedules two conflicting flows for optimal maximum
// response time (Theorem 3).
func ExampleSolveMRT() {
	inst := &flowsched.Instance{
		Switch: flowsched.UnitSwitch(2),
		Flows: []flowsched.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 1, Release: 0}, // same output port
		},
	}
	res, _ := flowsched.SolveMRT(inst)
	fmt.Println("optimal rho:", res.Rho)
	fmt.Println("capacity increase:", res.CapIncrease)
	// Output:
	// optimal rho: 2
	// capacity increase: 1
}

// ExampleSimulate runs the paper's MaxWeight heuristic online.
func ExampleSimulate() {
	inst := &flowsched.Instance{
		Switch: flowsched.UnitSwitch(2),
		Flows: []flowsched.Flow{
			{In: 0, Out: 1, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 1, Release: 0},
		},
	}
	res, _ := flowsched.Simulate(inst, flowsched.PolicyByName("MaxWeight"))
	fmt.Println("max response:", res.MaxResponse)
	// Output:
	// max response: 1
}

// ExampleSolveART sweeps Theorem 1's capacity factor on a shuffle known up
// front: a larger c buys capacity and drives the total response time
// toward the LP (1)-(4) bound. Each schedule is validated under the
// capacities, scaled by 1+c, it was bought with.
func ExampleSolveART() {
	rng := rand.New(rand.NewSource(42))
	inst := workload.PoissonConfig{M: 6, T: 6, Ports: 6}.Generate(rng)
	lb, _ := flowsched.ARTLowerBound(inst)
	fmt.Printf("%d unit flows, LP bound on total response %.1f\n", inst.N(), lb.TotalResponse)
	for _, c := range []int{1, 2, 4} {
		res, _ := flowsched.SolveART(inst, c)
		_, err := flowsched.CheckScaled(inst, res.Schedule, res.CapFactor)
		fmt.Printf("c=%d: total response %d, window h=%d, valid at %dx capacity: %v\n",
			c, res.Schedule.TotalResponse(inst), res.WindowH, res.CapFactor, err == nil)
	}
	// Output:
	// 41 unit flows, LP bound on total response 78.5
	// c=1: total response 258, window h=6, valid at 2x capacity: true
	// c=2: total response 148, window h=3, valid at 3x capacity: true
	// c=4: total response 106, window h=1, valid at 5x capacity: true
}

// ExampleCheckSchedule runs the feasibility oracle on a hand-built
// schedule: flow 1 runs before its release, which the oracle rejects.
func ExampleCheckSchedule() {
	inst := &flowsched.Instance{
		Switch: flowsched.UnitSwitch(2),
		Flows: []flowsched.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 1, Out: 1, Demand: 1, Release: 2},
		},
	}
	good := &flowsched.Schedule{Round: []int{0, 2}}
	rep, err := flowsched.CheckSchedule(inst, good, inst.Switch.Caps())
	fmt.Println("good schedule feasible:", err == nil, "total response:", rep.TotalResponse)
	bad := &flowsched.Schedule{Round: []int{0, 1}}
	_, err = flowsched.CheckSchedule(inst, bad, inst.Switch.Caps())
	fmt.Println("bad schedule error:", err != nil)
	// Output:
	// good schedule feasible: true total response: 2
	// bad schedule error: true
}

// ExampleSRPTLowerBound certifies a schedule against the combinatorial
// lower bound.
func ExampleSRPTLowerBound() {
	inst := &flowsched.Instance{
		Switch: flowsched.UnitSwitch(3),
		Flows: []flowsched.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 1, Release: 0},
			{In: 2, Out: 0, Demand: 1, Release: 0},
		},
	}
	fmt.Println("total response is at least", flowsched.SRPTLowerBound(inst))
	// Output:
	// total response is at least 6
}

// ExampleStreamRuntime drains a finite instance through the streaming
// scheduler runtime: flows arrive as a stream, the native RoundRobin
// policy schedules them from per-port virtual output queues, and every
// completed window is spot-checked by the verify oracle.
func ExampleStreamRuntime() {
	inst := &flowsched.Instance{
		Switch: flowsched.UnitSwitch(3),
		Flows: []flowsched.Flow{ // three flows contending for output 0
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 1, Release: 0},
			{In: 2, Out: 0, Demand: 1, Release: 0},
		},
	}
	rt, _ := flowsched.NewStreamRuntime(flowsched.NewInstanceSource(inst), flowsched.StreamConfig{
		Switch:      inst.Switch,
		Policy:      flowsched.StreamPolicyByName("RoundRobin"),
		VerifyEvery: 4,
	})
	sum, err := rt.Run()
	fmt.Println("completed:", sum.Completed, "error:", err)
	fmt.Println("total response:", sum.TotalResponse)
	fmt.Println("max response:", sum.MaxResponse)
	fmt.Println("windows verified:", sum.WindowsVerified)
	// Output:
	// completed: 3 error: <nil>
	// total response: 6
	// max response: 3
	// windows verified: 1
}
