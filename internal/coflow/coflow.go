// Package coflow extends the switch scheduling model to co-flows — the
// generalization the paper names as future work in Section 6 and compares
// against in related work ([15] Varys, [16] Sincronia-style scheduling).
//
// A coflow is a set of flows belonging to one application stage (e.g. a
// shuffle); it completes when its last member flow completes, and its
// response time is that completion minus the coflow's release round. The
// package flattens coflow instances onto the base switch model, computes
// coflow-level response metrics, and provides online policies:
// coflow-FIFO, SCF (smallest total size first) and SEBF (smallest
// effective bottleneck first, the Varys heuristic) — all implemented as
// sim.Policy, run bridged on the streaming runtime, with the owner map
// indexed by the flow identifiers a policy is shown (sim.Pending.Flow).
package coflow

import (
	"fmt"
	"slices"
	"sort"

	"flowsched/internal/sim"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
)

// Coflow is a group of flows released together.
type Coflow struct {
	// Release is the round at which every member becomes available.
	Release int
	// Members are the flows; their Release fields are ignored (the
	// coflow's Release applies).
	Members []switchnet.Flow
}

// Instance is a coflow scheduling instance.
type Instance struct {
	Switch  switchnet.Switch
	Coflows []Coflow
}

// Flatten converts the coflow instance into a plain flow instance plus an
// owner map from flattened flow index to coflow index.
func (in *Instance) Flatten() (*switchnet.Instance, []int) {
	flat := &switchnet.Instance{Switch: in.Switch}
	var owner []int
	for ci, cf := range in.Coflows {
		for _, f := range cf.Members {
			f.Release = cf.Release
			flat.Flows = append(flat.Flows, f)
			owner = append(owner, ci)
		}
	}
	return flat, owner
}

// Validate checks the flattened instance.
func (in *Instance) Validate() error {
	for ci, cf := range in.Coflows {
		if len(cf.Members) == 0 {
			return fmt.Errorf("coflow: coflow %d has no members", ci)
		}
		if cf.Release < 0 {
			return fmt.Errorf("coflow: coflow %d has negative release", ci)
		}
	}
	flat, _ := in.Flatten()
	return flat.Validate()
}

// Result summarizes a coflow-level evaluation of a flattened schedule.
type Result struct {
	// Completion[c] is the coflow's completion round + 1 (the paper's
	// C_e convention lifted to coflows).
	Completion []int
	// Response[c] = Completion[c] - Release[c].
	Response []int
	// TotalResponse and MaxResponse aggregate Response.
	TotalResponse int
	MaxResponse   int
}

// Evaluate computes coflow metrics for a complete schedule of the
// flattened instance.
func Evaluate(in *Instance, owner []int, s *switchnet.Schedule) (*Result, error) {
	nC := len(in.Coflows)
	res := &Result{Completion: make([]int, nC), Response: make([]int, nC)}
	for f, t := range s.Round {
		if t == switchnet.Unscheduled {
			return nil, fmt.Errorf("coflow: flow %d unscheduled", f)
		}
		c := owner[f]
		if t+1 > res.Completion[c] {
			res.Completion[c] = t + 1
		}
	}
	for c := range res.Response {
		r := res.Completion[c] - in.Coflows[c].Release
		res.Response[c] = r
		res.TotalResponse += r
		if r > res.MaxResponse {
			res.MaxResponse = r
		}
	}
	return res, nil
}

// AvgResponse returns the mean coflow response time.
func (r *Result) AvgResponse() float64 {
	if len(r.Response) == 0 {
		return 0
	}
	return float64(r.TotalResponse) / float64(len(r.Response))
}

// policy orders coflows by a key each round and first-fits their pending
// flows in that order (work-conserving: later coflows fill leftover
// capacity).
type policy struct {
	name  string
	owner []int
	// key returns the priority key of a coflow given its pending members;
	// smaller runs first.
	key func(st *sim.State, members []int) int
}

// Name implements sim.Policy.
func (p *policy) Name() string { return p.name }

// Pick implements sim.Policy.
func (p *policy) Pick(st *sim.State) []int {
	// Group pending flows by coflow.
	groups := map[int][]int{}
	for i, pd := range st.Pending {
		c := p.owner[pd.Flow]
		groups[c] = append(groups[c], i)
	}
	order := make([]int, 0, len(groups))
	for c := range groups {
		order = append(order, c)
	}
	keys := map[int]int{}
	for c, members := range groups {
		keys[c] = p.key(st, members)
	}
	sort.Slice(order, func(a, b int) bool {
		if keys[order[a]] != keys[order[b]] {
			return keys[order[a]] < keys[order[b]]
		}
		return order[a] < order[b]
	})
	// First-fit respecting port capacities, coflow priority outermost.
	loadIn := make([]int, st.Switch.NumIn())
	loadOut := make([]int, st.Switch.NumOut())
	var picks []int
	for _, c := range order {
		members := groups[c]
		// Within a coflow, heaviest flows first (they bound completion).
		sort.Slice(members, func(a, b int) bool {
			da, db := st.Pending[members[a]].Demand, st.Pending[members[b]].Demand
			if da != db {
				return da > db
			}
			return members[a] < members[b]
		})
		for _, i := range members {
			pd := st.Pending[i]
			if loadIn[pd.In]+pd.Demand <= st.Switch.InCaps[pd.In] &&
				loadOut[pd.Out]+pd.Demand <= st.Switch.OutCaps[pd.Out] {
				loadIn[pd.In] += pd.Demand
				loadOut[pd.Out] += pd.Demand
				picks = append(picks, i)
			}
		}
	}
	return picks
}

// FIFO schedules coflows in release order (ties by index).
func FIFO(in *Instance, owner []int) sim.Policy {
	return &policy{
		name:  "CoflowFIFO",
		owner: owner,
		key: func(st *sim.State, members []int) int {
			return in.Coflows[owner[st.Pending[members[0]].Flow]].Release
		},
	}
}

// SCF runs the smallest remaining total demand first.
func SCF(owner []int) sim.Policy {
	return &policy{
		name:  "SCF",
		owner: owner,
		key: func(st *sim.State, members []int) int {
			total := 0
			for _, i := range members {
				total += st.Pending[i].Demand
			}
			return total
		},
	}
}

// SEBF runs the smallest effective bottleneck first (Varys): a coflow's
// key is the largest per-port remaining demand among its members, i.e.
// the minimum rounds the coflow still needs on its most congested port.
func SEBF(owner []int) sim.Policy {
	return &policy{
		name:  "SEBF",
		owner: owner,
		key: func(st *sim.State, members []int) int {
			loadIn := map[int]int{}
			loadOut := map[int]int{}
			bottleneck := 0
			for _, i := range members {
				pd := st.Pending[i]
				loadIn[pd.In] += pd.Demand
				loadOut[pd.Out] += pd.Demand
				if loadIn[pd.In] > bottleneck {
					bottleneck = loadIn[pd.In]
				}
				if loadOut[pd.Out] > bottleneck {
					bottleneck = loadOut[pd.Out]
				}
			}
			return bottleneck
		},
	}
}

// Run flattens the instance, replays it under the policy, and returns
// coflow and flow-level results. The runtime shows flows by admission
// position, in release order, so mk gets the owner map in that order.
func Run(in *Instance, mk func(owner []int) sim.Policy) (*Result, *sim.Result, error) {
	if err := in.Validate(); err != nil {
		return nil, nil, err
	}
	flat, owner := in.Flatten()
	admitted := slices.Clone(owner)
	slices.SortStableFunc(admitted, func(a, b int) int { return in.Coflows[a].Release - in.Coflows[b].Release })
	simRes, _, err := stream.Replay(flat, stream.Config{Policy: &stream.Bridge{P: mk(admitted)}})
	if err != nil {
		return nil, nil, err
	}
	cfRes, err := Evaluate(in, owner, simRes.Schedule)
	if err != nil {
		return nil, nil, err
	}
	return cfRes, simRes, nil
}
