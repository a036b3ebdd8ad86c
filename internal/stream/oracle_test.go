package stream_test

import (
	"fmt"
	"sort"
	"testing"

	"flowsched/internal/coflow"
	"flowsched/internal/matching"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
)

// refFlow is one released, not-yet-scheduled flow as a reference policy
// sees it: Flow is its index in the instance.
type refFlow struct {
	Flow, In, Out, Demand, Release int
}

// refState is what a reference policy selects from each round: the open
// queue G_t of Section 5.2.1 as a list in release order (ties by flow
// index), and the numbers of pending flows at each input and output.
type refState struct {
	Round             int
	Switch            switchnet.Switch
	Pending           []refFlow
	QueueIn, QueueOut []int
}

// refPolicy is a reference selection rule, written the plain way: it
// returns indices into s.Pending, and simRun checks them.
type refPolicy interface {
	Name() string
	Pick(s *refState) []int
}

// simRun is the oracle the runtime's replays are held to: the batch
// round loop of Section 5.2.1, written the plain way. It keeps the
// bipartite graph G_t of released-but-unscheduled flows as a list in
// release order (ties by flow index), asks the reference for a feasible
// set each round, validates it, and advances time until every flow has
// been scheduled. A reference sees each flow under its index in the
// instance; the runtime shows a policy the admission sequence number
// instead, which is the same order.
func simRun(inst *switchnet.Instance, pol refPolicy) (*stream.Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	n := inst.N()
	sched := switchnet.NewSchedule(n)
	if n == 0 {
		return &stream.Result{Schedule: sched}, nil
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

	st := &refState{
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
			st.Pending = append(st.Pending, refFlow{Flow: f, In: e.In, Out: e.Out, Demand: e.Demand, Release: e.Release})
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
	return &stream.Result{
		Schedule:      sched,
		TotalResponse: sched.TotalResponse(inst),
		AvgResponse:   sched.AvgResponse(inst),
		MaxResponse:   sched.MaxResponse(inst),
		Rounds:        t,
	}, nil
}

// firstFit picks pending flows in the order given by less, taking each
// flow whose ports still have room.
func firstFit(s *refState, less func(a, b refFlow) bool) []int {
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

// The paper's three heuristics (Section 5.2.2) as references: on
// unit-demand rounds an exact capacitated matching over the pending
// list, otherwise first fit by weight over it.
type (
	maxCardRef   struct{}
	minRTimeRef  struct{}
	maxWeightRef struct{}
)

// paperRef returns the reference of the paper row name.
func paperRef(name string) refPolicy {
	return map[string]refPolicy{"MaxCard": maxCardRef{}, "MinRTime": minRTimeRef{}, "MaxWeight": maxWeightRef{}}[name]
}

func (maxCardRef) Name() string   { return "MaxCard" }
func (minRTimeRef) Name() string  { return "MinRTime" }
func (maxWeightRef) Name() string { return "MaxWeight" }

func (maxCardRef) Pick(s *refState) []int {
	if allUnit(s) {
		return matching.CapacitatedMaxCardinality(s.Switch.InCaps, s.Switch.OutCaps, pendingEdges(s, func(refFlow) int { return 0 }))
	}
	return firstFit(s, func(a, b refFlow) bool {
		if a.Demand != b.Demand {
			return a.Demand < b.Demand
		}
		return a.Release < b.Release
	})
}

func (minRTimeRef) Pick(s *refState) []int {
	age := func(p refFlow) int { return s.Round - p.Release + 1 }
	if allUnit(s) {
		return matching.CapacitatedMaxWeight(s.Switch.InCaps, s.Switch.OutCaps, pendingEdges(s, age))
	}
	return firstFit(s, func(a, b refFlow) bool { return age(a) > age(b) })
}

func (maxWeightRef) Pick(s *refState) []int {
	weight := func(p refFlow) int { return s.QueueIn[p.In] + s.QueueOut[p.Out] }
	if allUnit(s) {
		return matching.CapacitatedMaxWeight(s.Switch.InCaps, s.Switch.OutCaps, pendingEdges(s, weight))
	}
	return firstFit(s, func(a, b refFlow) bool { return weight(a) > weight(b) })
}

func allUnit(s *refState) bool {
	for _, p := range s.Pending {
		if p.Demand != 1 {
			return false
		}
	}
	return true
}

func pendingEdges(s *refState, weight func(refFlow) int) []matching.Edge {
	edges := make([]matching.Edge, len(s.Pending))
	for i, p := range s.Pending {
		edges[i] = matching.Edge{L: p.In, R: p.Out, Weight: weight(p)}
	}
	return edges
}

// fifoRef is the oracle's FIFO reference, the rule StreamFIFO ships:
// first-fit in release order, ties by flow, no matching at all.
type fifoRef struct{}

func (fifoRef) Name() string { return "FIFO" }

func (fifoRef) Pick(s *refState) []int {
	return firstFit(s, func(a, b refFlow) bool {
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

func (agePortOrder) Pick(s *refState) []int {
	return firstFit(s, func(a, b refFlow) bool {
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

// coflowRef is the reference of internal/coflow's orderings on the
// flattened instance, owner indexed by flattened flow index: group the
// pending list by coflow, order the coflows by (key, index), and
// first-fit their members, heaviest first, ties in list order.
type coflowRef struct {
	name  string
	owner []int
	key   func(s *refState, members []int) int
}

func (p *coflowRef) Name() string { return p.name }

func (p *coflowRef) Pick(s *refState) []int {
	groups := map[int][]int{}
	for i, pd := range s.Pending {
		c := p.owner[pd.Flow]
		groups[c] = append(groups[c], i)
	}
	order := make([]int, 0, len(groups))
	keys := map[int]int{}
	for c, members := range groups {
		order = append(order, c)
		keys[c] = p.key(s, members)
	}
	sort.Slice(order, func(a, b int) bool {
		if keys[order[a]] != keys[order[b]] {
			return keys[order[a]] < keys[order[b]]
		}
		return order[a] < order[b]
	})
	loadIn := make([]int, s.Switch.NumIn())
	loadOut := make([]int, s.Switch.NumOut())
	var picks []int
	for _, c := range order {
		members := groups[c]
		sort.Slice(members, func(a, b int) bool {
			da, db := s.Pending[members[a]].Demand, s.Pending[members[b]].Demand
			if da != db {
				return da > db
			}
			return members[a] < members[b]
		})
		for _, i := range members {
			pd := s.Pending[i]
			if loadIn[pd.In]+pd.Demand <= s.Switch.InCaps[pd.In] && loadOut[pd.Out]+pd.Demand <= s.Switch.OutCaps[pd.Out] {
				loadIn[pd.In] += pd.Demand
				loadOut[pd.Out] += pd.Demand
				picks = append(picks, i)
			}
		}
	}
	return picks
}

// The coflow references: SEBF's largest per-port remaining demand, SCF's
// total remaining demand, and coflow-FIFO's release.
func sebfRef(owner []int) refPolicy {
	return &coflowRef{name: "SEBF", owner: owner, key: func(s *refState, members []int) int {
		loadIn, loadOut := map[int]int{}, map[int]int{}
		bottleneck := 0
		for _, i := range members {
			pd := s.Pending[i]
			loadIn[pd.In] += pd.Demand
			loadOut[pd.Out] += pd.Demand
			bottleneck = max(bottleneck, loadIn[pd.In], loadOut[pd.Out])
		}
		return bottleneck
	}}
}

func scfRef(owner []int) refPolicy {
	return &coflowRef{name: "SCF", owner: owner, key: func(s *refState, members []int) int {
		total := 0
		for _, i := range members {
			total += s.Pending[i].Demand
		}
		return total
	}}
}

func coflowFIFORef(in *coflow.Instance, owner []int) refPolicy {
	return &coflowRef{name: "CoflowFIFO", owner: owner, key: func(s *refState, members []int) int {
		return in.Coflows[owner[s.Pending[members[0]].Flow]].Release
	}}
}

// mustReplay replays inst through the runtime under cfg, failing t on an
// error.
func mustReplay(t *testing.T, inst *switchnet.Instance, cfg stream.Config) (*stream.Result, *stream.Summary) {
	t.Helper()
	res, sum, err := stream.Replay(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, sum
}
