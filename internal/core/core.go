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
// First fit (firstFit) runs before any of the three LPs is built, and what
// it finds decides how much LP there is. Every LP that is built is
// crash-started at that greedy schedule, handed to the solver as
// lp.SolveOptions.Start. A schedule names one column per covering row —
// constraints (2), (6), (20), added first in every builder — so the solver
// puts those columns in its starting basis and the simplex starts where
// phase 1 would have had to get to, with the schedule's costs as its
// starting duals. What each caller may rely on is what its LP is used for,
// never a particular vertex:
//
//   - LP (1)-(4), ARTLowerBound: the optimum. First fit in release order, a
//     schedule that respects every port capacity, is the start, and the
//     round after the last one it uses is the horizon the LP is solved
//     over; the optimum's duals certify that no later round prices out, or
//     the LP is solved once more at inst.CongestionHorizon()
//     (solveOverFirstFit).
//   - LP (19)-(21), MRTLowerBound, SolveMRT and SolveTimeConstrained:
//     feasibility, and Theorem 3's rounding, which holds at whatever vertex
//     it is given. First fit by deadline that places every flow is a 0/1
//     point of the LP: it answers "feasible", and is the schedule, with no
//     LP built. Only where it leaves a flow out is the LP built, started
//     there, and solved.
//   - The interval LP (5)-(8), IterativeRound and SolveART: the optimum,
//     Lemma 3.3's interval bound and Theorem 1's conversion, all of which
//     hold at every basic optimum. First fit in release order over aligned
//     width-4 windows holding 4*c_p each, a point of (6)-(7), is the start,
//     and the horizon is chosen as for LP (1)-(4), in whole windows. Where
//     the optimum is not unique the pseudo-schedule, and so the schedule, is
//     the one the started solve ends at, at the same LP cost.
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
	"math"
	"slices"

	"flowsched/internal/lp"
	"flowsched/internal/switchnet"
)

// ErrInfeasible is returned when an instance admits no schedule under the
// requested constraints (e.g. no schedule with the given response bound).
var ErrInfeasible = errors.New("core: infeasible")

// windowSlots numbers the aligned windows of width rounds — the round itself
// at width 1 — that the rounds of some Windows fall in, in ascending order,
// as slots 0..n-1. Where the windows from the first one in use to the last
// are no more than those rounds, a slot is the offset from the first;
// otherwise, for far or sparse rounds, it is the rank among the distinct
// windows in use. Either way a per-(port, slot) table is a dense array of n
// entries per port, n at most the number of rounds it counts, whatever the
// rounds are.
type windowSlots struct {
	width, lo, n int
	rank         []int // the distinct windows in use, ascending; nil when slots are offsets
}

func newWindowSlots(win Windows, width int) windowSlots {
	s := windowSlots{width: width, lo: math.MaxInt}
	hi, count := -1, 0
	for _, rounds := range win {
		for _, t := range rounds {
			s.lo, hi = min(s.lo, t/width), max(hi, t/width)
		}
		count += len(rounds)
	}
	if count == 0 {
		return windowSlots{width: width}
	}
	if s.n = hi - s.lo + 1; s.n <= count {
		return s
	}
	s.rank = make([]int, 0, count)
	for _, rounds := range win {
		for _, t := range rounds {
			s.rank = append(s.rank, t/width)
		}
	}
	slices.Sort(s.rank)
	s.rank = slices.Compact(s.rank)
	s.n = len(s.rank)
	return s
}

// slot is the slot of round t, one of the rounds the slots were made from.
func (s windowSlots) slot(t int) int {
	if s.rank == nil {
		return t/s.width - s.lo
	}
	k, _ := slices.BinarySearch(s.rank, t/s.width)
	return k
}

// timeIndex lays out the variables of a time-indexed LP flow by flow: flow
// f owns variables off[f] up to off[f+1], one per candidate round, in the
// order its candidates were given. slot is a variable's window's slot among
// the nSlots of windowSlots, which orders the windows as the rounds are
// ordered; in[f] and out[f] are where the entries of flow f's two ports
// begin in a per-(port, slot) table.
type timeIndex struct {
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
	ix := &timeIndex{off: make([]int, len(rounds)+1)}
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
	slots := newWindowSlots(rounds, width)
	for j, t := range ix.round {
		ix.slot[j] = slots.slot(t)
	}
	ix.nSlots = slots.n
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
// candidate rounds win[f] whose aligned window of width rounds — the round
// itself at width 1 — still has room for its whole demand on both of its
// ports, a window holding width*c_p per port, and returns the position in
// win[f] chosen per flow (-1 for a flow no candidate can take). It needs no
// timeIndex: the loads are one dense array of windowSlots per port, so it
// runs before any LP is built and decides whether one is. At width 1 the
// placement is a schedule that respects every port capacity, a feasible 0/1
// point of LP (1)-(4) and of LP (19)-(21) over the same candidates; at width
// 4 it respects constraint (7) and is one of the interval LP (5)-(8). It is
// the point all three LPs' solves start from.
func firstFit(inst *switchnet.Instance, order []int, win Windows, width int) []int {
	slots := newWindowSlots(win, width)
	ports := inst.Switch.NumPorts()
	load := make([]int, slots.n*ports)
	placed := make([]int, inst.N())
	for f := range placed {
		placed[f] = -1
	}
	for _, f := range order {
		e := inst.Flows[f]
		in, out := inst.Switch.PortIndex(switchnet.In, e.In), inst.Switch.PortIndex(switchnet.Out, e.Out)
		roomIn := width*inst.Switch.InCaps[e.In] - e.Demand
		roomOut := width*inst.Switch.OutCaps[e.Out] - e.Demand
		for k, t := range win[f] {
			w := slots.slot(t) * ports
			a, b := w+in, w+out
			if load[a] <= roomIn && load[b] <= roomOut {
				load[a] += e.Demand
				load[b] += e.Demand
				placed[f] = k
				break
			}
		}
	}
	return placed
}

// placedAll reports whether firstFit placed every flow.
func placedAll(placed []int) bool { return !slices.Contains(placed, -1) }

// one is the value of a placed flow's variable in an LP whose variables are
// bounded by 1.
func one(int) float64 { return 1 }

// startAt is the point of a placement in an LP indexed by ix over the same
// windows: val(f) on the variable chosen for each flow placed, 0 elsewhere.
func startAt(ix *timeIndex, placed []int, val func(f int) float64) []float64 {
	start := make([]float64, ix.len())
	for f, k := range placed {
		if k >= 0 {
			start[ix.off[f]+k] = val(f)
		}
	}
	return start
}

// fitHorizon is the horizon an LP over the rounds [r_e, horizon) of
// fromRelease is solved at when firstFit placed every flow there: the round
// after the last one the placement uses, rounded up to a multiple of width so
// that no window row of that width is cut. It is horizon itself when a flow
// is unplaced or the rounding reaches it.
func fitHorizon(inst *switchnet.Instance, placed []int, width, horizon int) int {
	if !placedAll(placed) {
		return horizon
	}
	end := 0
	for f, k := range placed {
		end = max(end, inst.Flows[f].Release+k+1)
	}
	return min((end+width-1)/width*width, horizon)
}

// pricedOut reports whether no round at or after horizon can improve the
// optimum sol of an LP over the rounds [r_e, horizon) whose first rows cover
// the flows, one each, with dual y_e, and whose other rows are per (port,
// window) inside the horizon. Rows past the horizon are empty, so their
// duals are 0 and a column (e, t >= horizon) would price at cost(f, t) - y_e;
// costs grow in t, so t = horizon decides. When it holds, sol extended by
// zeros is optimal over any longer horizon: the (primal, dual) pair extended
// by zeros stays feasible and complementary. The test is the solver's own
// (lp.PricedOut): such a column would not enter there either.
func pricedOut(inst *switchnet.Instance, sol *lp.Solution, horizon int, cost costFunc) bool {
	for f := range inst.Flows {
		if !lp.PricedOut(cost(inst, f, horizon) - sol.Dual[f]) {
			return false
		}
	}
	return true
}

// costFunc is the objective coefficient of flow f's variable at round t.
type costFunc func(inst *switchnet.Instance, f, t int) float64

// solveOverFirstFit solves a time-indexed LP over the rounds [r_e, horizon)
// whose costs grow in t — LP (1)-(4) at width 1, the interval LP (5)-(8) at
// width 4, named what in errors — with build making the LP and its start
// from a horizon and firstFit's placement in release order at that width.
// The first solve is over fitHorizon, and its optimum stands when pricedOut
// certifies it; otherwise, or when first fit cannot place every flow, the LP
// is solved once over the rounds before inst.CongestionHorizon(), where it is
// always feasible and is the full LP. It returns the solve that stands, its
// horizon, and the stats of every solve.
func solveOverFirstFit(inst *switchnet.Instance, width int, cost costFunc, what string,
	build func(horizon int, placed []int) (*lp.Problem, []float64)) (*lp.Solution, int, lp.Stats, error) {
	full := inst.CongestionHorizon()
	placed := firstFit(inst, releaseOrder(inst), fromRelease(inst, full), width)
	var st lp.Stats
	for horizon := fitHorizon(inst, placed, width, full); ; horizon = full {
		p, start := build(horizon, placed)
		sol, err := p.SolveWith(lp.SolveOptions{Start: start})
		if err != nil {
			return nil, horizon, st, fmt.Errorf("core: %s at horizon %d: %w", what, horizon, err)
		}
		if sol.Status != lp.Optimal {
			return nil, horizon, st, fmt.Errorf("core: %s at horizon %d: status %v (%s)",
				what, horizon, sol.Status, describeLP(sol.Stats))
		}
		st.Add(sol.Stats)
		if horizon == full || pricedOut(inst, sol, horizon, cost) {
			return sol, horizon, st, nil
		}
	}
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
