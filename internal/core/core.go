// Package core implements the paper's scheduling algorithms:
//
//   - FS-ART (Section 3): the LP lower bound (1)-(4), the interval LP
//     (5)-(8) with the Bansal-Kulkarni style iterative rounding of
//     Lemma 3.3, and the pseudo-schedule to valid-schedule conversion of
//     Theorem 1 via Birkhoff-von Neumann decomposition.
//   - FS-MRT (Section 4): the time-constrained LP (19)-(21), the
//     Karp-Leighton-Rivest-Thompson-Vazirani-Vazirani rounding of
//     Theorem 3 with per-port capacity increase at most 2*d_max-1, and the
//     binary-search reduction from FS-MRT to time-constrained scheduling.
//   - Online (Section 5.1): the batched AMRT algorithm of Lemma 5.3.
//   - Combinatorial lower bounds used when LPs are too large.
//
// All three LPs are crash-started: each solve begins at a greedy schedule
// (firstFit), handed to the solver as lp.SolveOptions.Start. A schedule
// names one column per covering row — constraints (2), (6), (20), added
// first in every builder — so the solver puts those columns in its starting
// basis and the simplex starts where phase 1 would have had to get to, with
// the schedule's costs as its starting duals. What each caller may rely on
// is what its LP is used for, never a particular vertex:
//
//   - LP (1)-(4), ARTLowerBound: the optimum. The start is first fit in
//     release order, a schedule that respects every port capacity.
//   - LP (19)-(21), MRTLowerBound, SolveMRT and SolveTimeConstrained:
//     feasibility, and Theorem 3's rounding, which holds at whatever vertex
//     it is given. The start is first fit by deadline; when it places every
//     flow the LP has nothing to minimise and the solver returns the start
//     as it stands.
//   - The interval LP (5)-(8), IterativeRound and SolveART: the optimum,
//     Lemma 3.3's interval bound and Theorem 1's conversion, all of which
//     hold at every basic optimum. The start is first fit in release order
//     over aligned width-4 windows holding 4*c_p each, a point of (6)-(7).
//     Where the optimum is not unique the pseudo-schedule, and so the
//     schedule, is the one the started solve ends at, at the same LP cost.
//
// The regrouped LPs of the rounding's later iterations are solved cold.
// There is no switch: lp.Stats.StartAtUpper in a result says how many flows
// the start placed and lp.Stats.StartBasic how many of them began basic.
//
//flowsched:deterministic
package core

import (
	"errors"
	"fmt"
	"slices"

	"flowsched/internal/switchnet"
)

// ErrInfeasible is returned when an instance admits no schedule under the
// requested constraints (e.g. no schedule with the given response bound).
var ErrInfeasible = errors.New("core: infeasible")

// timeIndex lays out the variables of a time-indexed LP flow by flow: flow
// f owns variables off[f] up to off[f+1], one per candidate round, in the
// order its candidates were given. slot ranks a variable's window — its
// round divided by the index's width: the round itself at width 1 — among
// the nSlots distinct windows in use, which makes every per-(port, window)
// table a dense array of nSlots entries per port, whatever the rounds are;
// in[f] and out[f] are where the entries of flow f's two ports begin.
type timeIndex struct {
	width   int
	off     []int // len flows+1
	in, out []int // per flow
	flow    []int // per variable
	round   []int
	slot    []int
	nSlots  int
	// ident[j] = j and ones[j] = 1: a flow's row is a run of each.
	ident []int
	ones  []float64
}

// newTimeIndex indexes one variable per flow and candidate round, with
// aligned windows of width rounds as slots.
func newTimeIndex(inst *switchnet.Instance, rounds Windows, width int) *timeIndex {
	ix := &timeIndex{width: width, off: make([]int, len(rounds)+1)}
	for f, r := range rounds {
		ix.off[f+1] = ix.off[f] + len(r)
	}
	n := ix.off[len(rounds)]
	ix.flow, ix.round, ix.slot, ix.ident = make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	ix.ones = make([]float64, n)
	for f, r := range rounds {
		for k, t := range r {
			ix.flow[ix.off[f]+k], ix.round[ix.off[f]+k] = f, t
		}
	}
	for j := range ix.ident {
		ix.ident[j], ix.ones[j] = j, 1
	}
	for j, t := range ix.round {
		ix.slot[j] = t / width
	}
	distinct := slices.Clone(ix.slot)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	for j, w := range ix.slot {
		ix.slot[j], _ = slices.BinarySearch(distinct, w)
	}
	ix.nSlots = len(distinct)
	ix.in, ix.out = make([]int, len(rounds)), make([]int, len(rounds))
	for f, e := range inst.Flows {
		ix.in[f] = inst.Switch.PortIndex(switchnet.In, e.In) * ix.nSlots
		ix.out[f] = inst.Switch.PortIndex(switchnet.Out, e.Out) * ix.nSlots
	}
	return ix
}

// len is the number of variables.
func (ix *timeIndex) len() int { return len(ix.flow) }

// fromRelease gives every flow the candidate rounds [r_e, horizon), the
// variables of LP (1)-(4) and of the interval LP (5)-(8). The windows
// share one backing array.
func fromRelease(inst *switchnet.Instance, horizon int) Windows {
	rounds := make([]int, horizon)
	for t := range rounds {
		rounds[t] = t
	}
	cand := make(Windows, inst.N())
	for f, e := range inst.Flows {
		cand[f] = rounds[e.Release:]
	}
	return cand
}

// portRows groups the variables of a timeIndex by (port, slot): row k is
// vars[start[k]:start[k+1]], ascending, and constrains port[k]. Rows hold
// only (port, slot) pairs some variable touches and are ordered by port,
// then slot. The order is part of the result: a different row order walks
// the simplex through different pivots to a different, equally valid,
// vertex, and a sweep would stop being reproducible.
type portRows struct {
	port, start, vars []int
}

func newPortRows(inst *switchnet.Instance, ix *timeIndex) portRows {
	next := make([]int, inst.Switch.NumPorts()*ix.nSlots+1)
	for j, f := range ix.flow {
		next[ix.in[f]+ix.slot[j]+1]++
		next[ix.out[f]+ix.slot[j]+1]++
	}
	var rows portRows
	for key := 1; key < len(next); key++ {
		if next[key] > 0 {
			rows.port = append(rows.port, (key-1)/ix.nSlots)
			rows.start = append(rows.start, next[key-1])
		}
		next[key] += next[key-1]
	}
	rows.start = append(rows.start, 2*ix.len())
	rows.vars = make([]int, 2*ix.len())
	for j, f := range ix.flow {
		for _, key := range [2]int{ix.in[f] + ix.slot[j], ix.out[f] + ix.slot[j]} {
			rows.vars[next[key]] = j
			next[key]++
		}
	}
	return rows
}

// firstFit places each flow, in the given order, at the first of its
// candidate rounds whose window — the round itself at width 1 — still has
// room for its whole demand on both of its ports, a window of the index
// holding width*c_p per port, and returns the variable chosen per flow (-1
// for a flow no candidate can take). At width 1 the placement is a schedule
// that respects every port capacity, a feasible 0/1 point of LP (1)-(4) and
// of LP (19)-(21) over the same candidates; at width 4 it respects
// constraint (7) and is one of the interval LP (5)-(8). It is the point all
// three LPs' solves start from.
func firstFit(inst *switchnet.Instance, order []int, ix *timeIndex) []int {
	load := make([]int, inst.Switch.NumPorts()*ix.nSlots)
	placed := make([]int, inst.N())
	for f := range placed {
		placed[f] = -1
	}
	for _, f := range order {
		e := inst.Flows[f]
		roomIn := ix.width*inst.Switch.InCaps[e.In] - e.Demand
		roomOut := ix.width*inst.Switch.OutCaps[e.Out] - e.Demand
		for j := ix.off[f]; j < ix.off[f+1]; j++ {
			a, b := ix.in[f]+ix.slot[j], ix.out[f]+ix.slot[j]
			if load[a] <= roomIn && load[b] <= roomOut {
				load[a] += e.Demand
				load[b] += e.Demand
				placed[f] = j
				break
			}
		}
	}
	return placed
}

// unitStart is the 0/1 point of firstFit's placement: 1 on the variable
// chosen for each flow placed, the start of an LP whose variables are
// bounded by 1.
func unitStart(inst *switchnet.Instance, order []int, ix *timeIndex) []float64 {
	start := make([]float64, ix.len())
	for _, j := range firstFit(inst, order, ix) {
		if j >= 0 {
			start[j] = 1
		}
	}
	return start
}

// releaseOrder returns the flows sorted by release round, ties in index
// order: the order firstFit takes them in for LP (1)-(4) and LP (5)-(8).
func releaseOrder(inst *switchnet.Instance) []int {
	release := make([]int, inst.N())
	for f, e := range inst.Flows {
		release[f] = e.Release
	}
	return orderBy(release)
}

// orderBy returns the flows sorted by key, ties in index order.
func orderBy(key []int) []int {
	order := make([]int, len(key))
	for f := range order {
		order[f] = f
	}
	slices.SortStableFunc(order, func(a, b int) int { return key[a] - key[b] })
	return order
}

// requireUnitDemands guards the Theorem 1 pipeline, which the paper states
// for unit flows.
func requireUnitDemands(inst *switchnet.Instance) error {
	if !inst.UnitDemands() {
		return fmt.Errorf("core: algorithm requires unit demands (Theorem 1)")
	}
	return nil
}
