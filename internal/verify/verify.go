// Package verify is the repository's trusted feasibility oracle for flow
// schedules. It re-derives, from first principles and independently of the
// solver code paths, whether a produced schedule is a real schedule for its
// instance: every flow a flow of the switch, every flow assigned a round, no
// flow before its release, full demand delivery, and no port loaded beyond
// the stated (possibly augmented) capacity in any round. It also recomputes
// the paper's response-time metrics from the raw assignment so experiment
// tables never report numbers a solver merely claims.
//
// It is the feasibility rule's one implementation. The solvers check their
// own post-conditions with it, as do the scenario engine, the experiment
// drivers, the property tests and the stream runtime's per-round
// verification. It takes from switchnet only the instance and schedule
// types, and raises capacities itself, so it inherits no bug from the code
// it checks.
//
// # The check
//
// The paper's constraint is per port per round — the demand scheduled on a
// port in a round is at most its capacity — so the oracle is a sweep, not a
// table: one pass over the flows checks each on its own and indexes those
// that carry load; the index is put in round order (a stable sort, skipped
// when the rounds already arrive non-decreasing, as the stream runtime's
// rounds do); and a second pass walks it one round at a time, summing
// demands into one counter per port, comparing the ports that round touched
// against their capacities, and zeroing them again. Time is O(flows), plus
// the sort when needed; memory is O(flows + ports) however far apart the
// rounds lie. There is one implementation: a Checker owns the scratch, and
// CheckSchedule, CheckScaled and CheckAugmented run one taken from a
// package pool and hand back a copy of its Report. Theorems 1 and 3 check at
// raised capacities, every port's capacity times a factor plus a delta;
// CheckAt is that rule's one implementation, and builds the raised
// capacities in the Checker's scratch.
//
// The oracle trusts nothing about a flow. One whose input or output port is
// not on the switch, or whose demand is not positive, is a violation in its
// own right and is otherwise left out: it adds nothing to the demand,
// delivery and response totals and loads no port.
//
// # Violation order
//
// Violations are listed deterministically: first the per-flow ones (off the
// switch, non-positive demand, unscheduled, negative round, before release)
// in flow order, then the overloaded (port, round) pairs by ascending round
// and, within a round, in the order the flows of that round first touch the
// port, a flow's input before its output. The list stops at 32 entries; the
// scalar fields cover every flow and every port regardless.
package verify

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"flowsched/internal/switchnet"
)

// Report is the outcome of checking one schedule against one instance. All
// metric fields are recomputed here from the assignment, not copied from
// solver results.
type Report struct {
	// Flows is the instance size n; Scheduled counts flows with an
	// assigned round.
	Flows     int
	Scheduled int
	// DeliveredDemand sums the demands of scheduled flows; TotalDemand is
	// the instance's demand mass. Full delivery means the two are equal
	// and Scheduled == Flows.
	DeliveredDemand int
	TotalDemand     int
	// TotalResponse, AvgResponse and MaxResponse are the paper's metrics
	// (C_e = round+1 convention), over the scheduled flows.
	TotalResponse int
	AvgResponse   float64
	MaxResponse   int
	// Makespan is one past the last used round.
	Makespan int
	// MaxOverload is the largest amount by which any (port, round) load
	// exceeds the checked capacities; 0 for a capacity-feasible schedule.
	MaxOverload int
	// MaxExcess is the largest load − capacity over the loaded (port,
	// round) pairs: negative when every loaded port has room to spare,
	// math.MinInt when no port is loaded. MaxOverload is max(MaxExcess, 0).
	// Under capacities raised uniformly by delta, MaxExcess + delta is the
	// excess over the unraised ones, so one check reads both.
	MaxExcess int
	// Violations lists the feasibility violations found, in the order the
	// package comment gives, up to maxViolations of them. Empty iff the
	// schedule is feasible.
	Violations []string
}

// Feasible reports whether the check found no violations.
func (r *Report) Feasible() bool { return len(r.Violations) == 0 }

// Err returns nil for a feasible report, or an error naming the first
// violation (and the total count).
func (r *Report) Err() error {
	if r.Feasible() {
		return nil
	}
	if len(r.Violations) == 1 {
		return fmt.Errorf("verify: %s", r.Violations[0])
	}
	return fmt.Errorf("verify: %s (and %d more violations)", r.Violations[0], len(r.Violations)-1)
}

// maxViolations bounds the recorded violation list so adversarial inputs
// cannot balloon reports; the count of further violations is still implied
// by MaxOverload / Scheduled.
const maxViolations = 32

// violate records one violation, up to maxViolations.
func (r *Report) violate(format string, args ...any) {
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// Checker is the oracle with its scratch memory attached: the round-ordered
// index of the scheduled flows, one load counter per port, the list of
// ports the current round touched, the raised capacities CheckAt checks
// at, and the Report itself. The zero value is ready to use. A Checker kept
// across calls — the stream runtime keeps one for its lifetime and checks
// each round with it as the round closes, the offline pipeline keeps one in
// each pooled workspace, and the package helpers share a pool of them —
// checks a round no larger than one it has seen before without
// allocating; memory is O(flows + ports) whatever the round span.
// A Checker is not safe for concurrent use.
type Checker struct {
	order   []int
	load    []int
	touched []int
	caps    []int
	rep     Report
}

// Check validates sched against inst under the per-port capacities caps
// (global index order: inputs then outputs; pass inst.Switch.Caps() for
// unaugmented checking). It returns a Report with recomputed metrics and
// the violation list, and a non-nil error iff the schedule is not a real
// schedule for the instance under caps. The Report is the Checker's own and
// is overwritten by the next Check.
//
// Structural mismatches (wrong schedule length, wrong capacity count) are
// returned as errors with a nil report, since no meaningful metrics exist.
func (c *Checker) Check(inst *switchnet.Instance, sched *switchnet.Schedule, caps []int) (*Report, error) {
	if inst == nil {
		return nil, fmt.Errorf("verify: nil instance")
	}
	if sched == nil {
		return nil, fmt.Errorf("verify: nil schedule")
	}
	if len(sched.Round) != len(inst.Flows) {
		return nil, fmt.Errorf("verify: schedule covers %d flows, instance has %d", len(sched.Round), len(inst.Flows))
	}
	nIn, nOut := inst.Switch.NumIn(), inst.Switch.NumOut()
	if len(caps) != nIn+nOut {
		return nil, fmt.Errorf("verify: got %d capacities, instance has %d ports", len(caps), nIn+nOut)
	}

	c.rep = Report{Flows: len(inst.Flows), MaxExcess: math.MinInt, Violations: c.rep.Violations[:0]}
	rep := &c.rep

	// Per-flow checks and metric accumulation, in flow order. order
	// collects the flows that load a port; sorted tracks whether their
	// rounds already arrive non-decreasing.
	order := slices.Grow(c.order[:0], len(inst.Flows))
	sorted, last := true, 0
	var scheduled, totalDemand, delivered, totalResp, maxResp, makespan int
	for f := range inst.Flows {
		e := &inst.Flows[f]
		malformed := false
		if e.In < 0 || e.In >= nIn {
			rep.violate("flow %d input port %d outside the switch's %d inputs", f, e.In, nIn)
			malformed = true
		}
		if e.Out < 0 || e.Out >= nOut {
			rep.violate("flow %d output port %d outside the switch's %d outputs", f, e.Out, nOut)
			malformed = true
		}
		if e.Demand <= 0 {
			rep.violate("flow %d demand %d is not positive", f, e.Demand)
			malformed = true
		}
		if malformed {
			continue
		}
		totalDemand += e.Demand
		t := sched.Round[f]
		if t == switchnet.Unscheduled {
			rep.violate("flow %d is unscheduled", f)
			continue
		}
		if t < 0 {
			rep.violate("flow %d assigned negative round %d", f, t)
			continue
		}
		scheduled++
		delivered += e.Demand
		if t < e.Release {
			rep.violate("flow %d scheduled at round %d before release %d", f, t, e.Release)
		}
		resp := t + 1 - e.Release
		totalResp += resp
		maxResp = max(maxResp, resp)
		makespan = max(makespan, t+1)
		if t < last {
			sorted = false
		}
		last = t
		order = append(order, f)
	}
	c.order = order
	rep.Scheduled, rep.TotalDemand, rep.DeliveredDemand = scheduled, totalDemand, delivered
	rep.TotalResponse, rep.MaxResponse, rep.Makespan = totalResp, maxResp, makespan
	if scheduled > 0 {
		rep.AvgResponse = float64(totalResp) / float64(scheduled)
	}
	if !sorted {
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(sched.Round[a], sched.Round[b]) })
	}

	// Port-capacity sweep, one round at a time: add the round's demands
	// into the per-port counters, compare every touched port against its
	// capacity, and zero exactly those counters for the next round. Every
	// flow in order has a positive demand, so a zero counter means an
	// untouched port.
	if len(c.load) < len(caps) {
		c.load = make([]int, len(caps))
		c.touched = make([]int, 0, len(caps))
	}
	load, touched := c.load, c.touched[:0]
	for i := 0; i < len(order); {
		t := sched.Round[order[i]]
		for ; i < len(order) && sched.Round[order[i]] == t; i++ {
			e := &inst.Flows[order[i]]
			in, out := e.In, nIn+e.Out
			if load[in] == 0 {
				touched = append(touched, in)
			}
			load[in] += e.Demand
			if load[out] == 0 {
				touched = append(touched, out)
			}
			load[out] += e.Demand
		}
		for _, p := range touched {
			over := load[p] - caps[p]
			rep.MaxExcess = max(rep.MaxExcess, over)
			if over > 0 {
				rep.MaxOverload = max(rep.MaxOverload, over)
				rep.violate("round %d: port %d loaded %d > capacity %d", t, p, load[p], caps[p])
			}
			load[p] = 0
		}
		touched = touched[:0]
	}
	return rep, rep.Err()
}

// CheckAt is Check at every port's capacity times factor plus delta:
// Theorem 1's (1+c)x augmentation at (1+c, 0), Theorem 3's +2*d_max-1 at
// (1, 2*d_max-1), the switch's own capacities at (1, 0). The raised
// capacities are written into c's scratch, so a warmed CheckAt allocates
// nothing either. The Report is c's own, as Check's is.
func (c *Checker) CheckAt(inst *switchnet.Instance, sched *switchnet.Schedule, factor, delta int) (*Report, error) {
	if inst == nil {
		return nil, fmt.Errorf("verify: nil instance")
	}
	c.caps = append(append(c.caps[:0], inst.Switch.InCaps...), inst.Switch.OutCaps...)
	for p, cp := range c.caps {
		c.caps[p] = cp*factor + delta
	}
	return c.Check(inst, sched, c.caps)
}

// checkers is the pool the package helpers check on: each takes a Checker,
// copies out its Report and puts it back, so a warmed helper call allocates
// the caller's Report and, for an infeasible schedule, its violation list.
var checkers = sync.Pool{New: func() any { return new(Checker) }}

// owned returns a copy of the Checker's rep that the caller keeps: the
// violation list is cloned, because the next check on that Checker
// overwrites it, and stays nil when it is empty.
func owned(rep *Report, err error) (*Report, error) {
	if rep == nil {
		return nil, err
	}
	out := *rep
	out.Violations = nil
	if len(rep.Violations) > 0 {
		out.Violations = slices.Clone(rep.Violations)
	}
	return &out, err
}

// CheckSchedule is Check on a pooled Checker. The Report it returns is a
// copy, the caller's to keep, and holds none of the Checker's scratch.
func CheckSchedule(inst *switchnet.Instance, sched *switchnet.Schedule, caps []int) (*Report, error) {
	c := checkers.Get().(*Checker)
	defer checkers.Put(c)
	return owned(c.Check(inst, sched, caps))
}

// CheckScaled checks sched under port capacities scaled by factor — the
// "(1+c) times the capacity" augmentation of Theorem 1 — on a pooled
// Checker: CheckAt at (factor, 0), with the Report copied out as
// CheckSchedule does.
func CheckScaled(inst *switchnet.Instance, sched *switchnet.Schedule, factor int) (*Report, error) {
	c := checkers.Get().(*Checker)
	defer checkers.Put(c)
	return owned(c.CheckAt(inst, sched, factor, 0))
}

// CheckAugmented checks sched under port capacities increased by delta —
// the "+2*d_max-1" augmentation of Theorem 3 — on a pooled Checker: CheckAt
// at (1, delta), with the Report copied out as CheckSchedule does.
func CheckAugmented(inst *switchnet.Instance, sched *switchnet.Schedule, delta int) (*Report, error) {
	c := checkers.Get().(*Checker)
	defer checkers.Put(c)
	return owned(c.CheckAt(inst, sched, 1, delta))
}
