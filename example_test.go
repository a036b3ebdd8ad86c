package flowsched_test

import (
	"errors"
	"fmt"
	"math/rand"

	flowsched "flowsched"
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
	res, _ := flowsched.Simulate(inst, flowsched.MaxWeight)
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
	inst := flowsched.GeneratePoisson(flowsched.PoissonConfig{M: 6, T: 6, Ports: 6}, rng)
	lb, _ := flowsched.ARTLowerBound(inst)
	fmt.Printf("%d unit flows, LP bound on total response %.1f\n", inst.N(), lb.TotalResponse)
	for _, c := range []int{1, 2, 4} {
		res, _ := flowsched.SolveART(inst, c)
		caps := flowsched.ScaleCaps(inst.Switch.Caps(), res.CapFactor)
		fmt.Printf("c=%d: total response %d, window h=%d, valid at %dx capacity: %v\n",
			c, res.Schedule.TotalResponse(inst), res.WindowH, res.CapFactor, res.Schedule.Validate(inst, caps) == nil)
	}
	// Output:
	// 41 unit flows, LP bound on total response 78.5
	// c=1: total response 258, window h=6, valid at 2x capacity: true
	// c=2: total response 148, window h=3, valid at 3x capacity: true
	// c=4: total response 106, window h=1, valid at 5x capacity: true
}

// ExampleDeadlineWindows solves the deadline model of Remark 4.2: every
// flow is scheduled inside its window, or the windows are reported
// infeasible.
func ExampleDeadlineWindows() {
	inst := &flowsched.Instance{
		Switch: flowsched.UnitSwitch(2),
		Flows: []flowsched.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 0},
			{In: 1, Out: 0, Demand: 1, Release: 0},
		},
	}
	win, _ := flowsched.DeadlineWindows(inst, []int{1, 1})
	res, err := flowsched.SolveTimeConstrained(inst, win)
	fmt.Println("feasible:", err == nil)
	fmt.Println("complete:", res.Schedule.Complete())
	// Both flows need output 0 in round 0.
	tight, _ := flowsched.DeadlineWindows(inst, []int{0, 0})
	_, err = flowsched.SolveTimeConstrained(inst, tight)
	fmt.Println("tightened windows infeasible:", errors.Is(err, flowsched.ErrInfeasible))
	// Output:
	// feasible: true
	// complete: true
	// tightened windows infeasible: true
}

// ExampleRunSweep runs the scenario engine: every registered solver
// crossed with the default workload patterns, each schedule checked by the
// verify oracle. The same seed always yields an identical result table,
// regardless of worker count.
func ExampleRunSweep() {
	cfg := flowsched.DefaultSweep(4, 4, 2, 11, 0)
	table := flowsched.RunSweep(cfg)
	fmt.Println("scenarios:", len(table.Rows))
	fmt.Println("solvers x workloads:", len(cfg.Solvers), "x", len(cfg.Generators))
	fmt.Println("all verified:", table.AllVerified())
	// Output:
	// scenarios: 42
	// solvers x workloads: 7 x 3
	// all verified: true
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
		Policy:      flowsched.StreamRoundRobin(),
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

// ExampleSimulateCoflows schedules a skewed job mix whose shuffles are
// coflows — groups of flows that help their job only once all of them
// finish (the Section 6 generalization). The coflow-aware policies, SEBF
// from Varys and smallest-coflow-first, keep the mice out from behind the
// elephants; coflow-oblivious FIFO does not.
func ExampleSimulateCoflows() {
	const m = 8
	rng := rand.New(rand.NewSource(11))
	in := &flowsched.CoflowInstance{Switch: flowsched.UnitSwitch(m)}
	for e := 0; e < 2; e++ { // two elephant shuffles
		cf := flowsched.Coflow{Release: e}
		for i := 0; i < 24; i++ {
			cf.Members = append(cf.Members, flowsched.Flow{In: rng.Intn(m), Out: rng.Intn(m), Demand: 1})
		}
		in.Coflows = append(in.Coflows, cf)
	}
	for t := 0; t < 10; t++ { // and a stream of interactive mice
		in.Coflows = append(in.Coflows, flowsched.Coflow{
			Release: t,
			Members: []flowsched.Flow{
				{In: rng.Intn(m), Out: rng.Intn(m), Demand: 1},
				{In: rng.Intn(m), Out: rng.Intn(m), Demand: 1},
			},
		})
	}
	for _, p := range []struct {
		name string
		mk   func(owner []int) flowsched.Policy
	}{
		{"FIFO", flowsched.CoflowFIFO(in)},
		{"SCF", flowsched.CoflowSCF},
		{"SEBF", flowsched.CoflowSEBF},
	} {
		res, _, _ := flowsched.SimulateCoflows(in, p.mk)
		fmt.Printf("%-4s avg coflow response %.2f, max %d\n", p.name, res.AvgResponse(), res.MaxResponse)
	}
	// Output:
	// FIFO avg coflow response 7.58, max 10
	// SCF  avg coflow response 3.17, max 17
	// SEBF avg coflow response 3.17, max 17
}
