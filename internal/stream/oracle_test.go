package stream_test

import (
	"fmt"
	"sort"
	"testing"

	"flowsched/internal/sim"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
)

// simRun is the oracle the runtime's replays are held to: the batch
// round loop of Section 5.2.1, written the plain way. It keeps the
// bipartite graph G_t of released-but-unscheduled flows as a list in
// release order (ties by flow index), asks the policy for a feasible set
// each round, validates it, and advances time until every flow has been
// scheduled. A policy here sees each flow under its index in the
// instance (sim.Pending.Flow); the runtime shows it the admission
// position instead, which is the same order.
func simRun(inst *switchnet.Instance, pol sim.Policy) (*sim.Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	n := inst.N()
	sched := switchnet.NewSchedule(n)
	if n == 0 {
		return &sim.Result{Schedule: sched}, nil
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := inst.Flows[order[a]].Release, inst.Flows[order[b]].Release
		if ra != rb {
			return ra < rb
		}
		return order[a] < order[b]
	})

	st := &sim.State{
		Switch:   inst.Switch,
		QueueIn:  make([]int, inst.Switch.NumIn()),
		QueueOut: make([]int, inst.Switch.NumOut()),
	}
	caps := inst.Switch.Caps()
	next, scheduled := 0, 0
	guard := 4*inst.CongestionHorizon() + 64
	t := inst.Flows[order[0]].Release
	for scheduled < n {
		if t > guard {
			return nil, fmt.Errorf("oracle: policy %q did not drain by round %d", pol.Name(), guard)
		}
		for next < n && inst.Flows[order[next]].Release <= t {
			f := order[next]
			e := inst.Flows[f]
			st.Pending = append(st.Pending, sim.Pending{Flow: f, In: e.In, Out: e.Out, Demand: e.Demand, Release: e.Release})
			st.QueueIn[e.In]++
			st.QueueOut[e.Out]++
			next++
		}
		if len(st.Pending) == 0 {
			// Jump to the next arrival.
			t = inst.Flows[order[next]].Release
			continue
		}
		st.Round = t
		picks := pol.Pick(st)

		load := make([]int, inst.Switch.NumPorts())
		seen := make([]bool, len(st.Pending))
		for _, pi := range picks {
			if pi < 0 || pi >= len(st.Pending) {
				return nil, fmt.Errorf("oracle: policy %q picked out-of-range index %d", pol.Name(), pi)
			}
			if seen[pi] {
				return nil, fmt.Errorf("oracle: policy %q picked index %d twice", pol.Name(), pi)
			}
			seen[pi] = true
			p := st.Pending[pi]
			pIn := inst.Switch.PortIndex(switchnet.In, p.In)
			pOut := inst.Switch.PortIndex(switchnet.Out, p.Out)
			load[pIn] += p.Demand
			load[pOut] += p.Demand
			if load[pIn] > caps[pIn] || load[pOut] > caps[pOut] {
				return nil, fmt.Errorf("oracle: policy %q overloaded a port in round %d", pol.Name(), t)
			}
			sched.Round[p.Flow] = t
			scheduled++
		}
		kept := st.Pending[:0]
		for pi, p := range st.Pending {
			if seen[pi] {
				st.QueueIn[p.In]--
				st.QueueOut[p.Out]--
				continue
			}
			kept = append(kept, p)
		}
		st.Pending = kept
		t++
	}
	return &sim.Result{
		Schedule:      sched,
		TotalResponse: sched.TotalResponse(inst),
		AvgResponse:   sched.AvgResponse(inst),
		MaxResponse:   sched.MaxResponse(inst),
		Rounds:        t,
	}, nil
}

// firstFit picks pending flows in the order given by less, taking each
// flow whose ports still have room.
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

// fifoRef is the oracle's FIFO reference, the rule StreamFIFO ships:
// first-fit in release order, ties by flow, no matching at all.
type fifoRef struct{}

func (fifoRef) Name() string { return "FIFO" }

func (fifoRef) Pick(s *sim.State) []int {
	return firstFit(s, func(a, b sim.Pending) bool {
		if a.Release != b.Release {
			return a.Release < b.Release
		}
		return a.Flow < b.Flow
	})
}

// agePortOrder is the MinRTime-style reference policy for the
// OldestFirst differential test: greedy first-fit over the whole pending
// set ordered by (release, input, output, flow) — MinRTime's age-first
// priorities with the deterministic port-order tie-break OldestFirst
// uses, expressed the expensive way: a full rescan and sort of the
// pending set every round.
type agePortOrder struct{}

func (agePortOrder) Name() string { return "AgePortOrder" }

func (agePortOrder) Pick(s *sim.State) []int {
	return firstFit(s, func(a, b sim.Pending) bool {
		if a.Release != b.Release {
			return a.Release < b.Release
		}
		if a.In != b.In {
			return a.In < b.In
		}
		if a.Out != b.Out {
			return a.Out < b.Out
		}
		return a.Flow < b.Flow
	})
}

// mustReplay replays inst through the runtime under cfg, failing t on an
// error.
func mustReplay(t *testing.T, inst *switchnet.Instance, cfg stream.Config) (*sim.Result, *stream.Summary) {
	t.Helper()
	res, sum, err := stream.Replay(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, sum
}
