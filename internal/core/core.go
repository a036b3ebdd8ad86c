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
// One time-indexed builder (newTimeLP) serves the three LPs: a layout says
// which one, and the builder writes every row in place into a reused
// lp.Problem, which goes back for the next build once the solve — or, for
// LP (19)-(21), Theorem 3's rounding, which reads the same rows — is done.
//
// First fit (firstFit) runs before any of the three LPs is built, and what
// it finds decides how much LP there is. Every LP that is built is
// crash-started at that greedy schedule, handed to the solver as
// lp.SolveOptions.Start. A schedule names one column per covering row —
// constraints (2), (6), (20), the builder's first rows — so the solver
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
	"sync"

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

// layout is what tells the paper's three time-indexed LPs apart; newTimeLP
// builds all three. What they share is the layout itself:
//
//   - one variable per flow and candidate round, flow by flow, in the order
//     the flow's rounds are given;
//   - a covering row per flow, in flow order, first: constraints (2), (6)
//     and (20);
//   - then a row per port and aligned window of width rounds that some
//     variable touches, ordered by port, then window, with its variables
//     ascending: constraints (3), (7) and (19).
//
// The row order is part of the result: a different order walks the simplex
// through different pivots to a different, equally valid, vertex, and a
// sweep would stop being reproducible.
type layout struct {
	width int      // rounds per window of a port row: 4 for (7), 1 elsewhere
	cover lp.Sense // of the covering rows: GE for (2) and (6), EQ for (20)
	cost  costFunc // nil for LP (19)-(21), which only asks for feasibility
	// units says a variable is the demand b_et served in round t, in
	// [0, d_e], that covers d_e and weighs 1 on its ports (LP (1)-(4)).
	// Otherwise it is the share x_et, in [0, 1], that covers 1 and weighs d_e.
	units bool
}

var (
	artLayout      = layout{width: 1, cover: lp.GE, cost: artCost, units: true} // LP (1)-(4)
	intervalLayout = layout{width: 4, cover: lp.GE, cost: intervalCost}         // LP (5)-(8); unit demands, so b = x
	windowLayout   = layout{width: 1, cover: lp.EQ}                             // LP (19)-(21)
)

// timeLP is a time-indexed LP laid out in its own lp.Problem, with the
// windows it was built over and the point its solve starts from. The build,
// the solve and Theorem 3's rounding all read the same rows; release hands
// it back to timeLPs after the last of them.
type timeLP struct {
	p   lp.Problem
	win Windows
	// start is firstFit's placement as a point of the LP: the covering row's
	// right-hand side on the variable chosen for each flow placed, 0
	// elsewhere.
	start []float64
	next  []int // per (port, window): the build's counting sort
}

// timeLPs keeps the memory of released LPs for the next build. A timeLP
// carries nothing from one build to the next but capacity, as lp's solver
// state does: newTimeLP resets or writes everything it holds.
var timeLPs = sync.Pool{New: func() any { return new(timeLP) }}

// newTimeLP builds the LP of layout l over the candidate rounds win, its
// start placed by firstFit over win (nil places nothing), writing every row
// in place into the Problem's arena, which is reserved at its final size.
func newTimeLP(inst *switchnet.Instance, win Windows, l layout, placed []int) *timeLP {
	m := timeLPs.Get().(*timeLP)
	m.win = win
	slots := newWindowSlots(win, l.width)
	ports := inst.Switch.NumPorts()
	keys := func(f int) (in, out int) {
		e := inst.Flows[f]
		return inst.Switch.PortIndex(switchnet.In, e.In) * slots.n, inst.Switch.PortIndex(switchnet.Out, e.Out) * slots.n
	}
	// Count each port row's entries, one per variable on each of its two
	// ports, at next[key+1].
	m.next = append(m.next[:0], make([]int, ports*slots.n+1)...)
	n := 0
	for f, rounds := range win {
		in, out := keys(f)
		for _, t := range rounds {
			s := slots.slot(t)
			m.next[in+s+1]++
			m.next[out+s+1]++
		}
		n += len(rounds)
	}
	p := &m.p
	p.Reset(n, len(win)+min(2*n, ports*slots.n), 3*n)
	m.start = append(m.start[:0], make([]float64, n)...)
	j := 0
	for f, rounds := range win {
		cover := 1.0
		if l.units {
			cover = float64(inst.Flows[f].Demand)
		}
		idx, val := p.AppendRow(len(rounds), l.cover, cover)
		if placed != nil && placed[f] >= 0 {
			m.start[j+placed[f]] = cover
		}
		for k, t := range rounds {
			idx[k], val[k] = j, 1
			if l.cost != nil {
				p.SetCost(j, l.cost(inst, f, t))
			}
			p.SetBounds(j, 0, cover)
			j++
		}
	}
	// The port rows, sized by the counts; next[key] becomes where key's row
	// begins among their entries, then the scatter fills each row in turn.
	first := p.NumRows()
	for key := 1; key < len(m.next); key++ {
		if m.next[key] > 0 {
			p.AppendRow(m.next[key], lp.LE, float64(l.width*inst.Switch.Cap((key-1)/slots.n)))
		}
		m.next[key] += m.next[key-1]
	}
	idx, val := p.Entries(first, p.NumRows())
	j = 0
	for f, rounds := range win {
		in, out := keys(f)
		weight := float64(inst.Flows[f].Demand)
		if l.units {
			weight = 1
		}
		for _, t := range rounds {
			s := slots.slot(t)
			for _, key := range [2]int{in + s, out + s} {
				idx[m.next[key]], val[m.next[key]] = j, weight
				m.next[key]++
			}
			j++
		}
	}
	return m
}

// solve runs the LP's solve from its start.
func (m *timeLP) solve() (*lp.Solution, error) {
	return m.p.SolveWith(lp.SolveOptions{Start: m.start})
}

// release hands m back to timeLPs; nothing may read it, or a Solution's
// rounding system built on its rows, afterwards.
func (m *timeLP) release() {
	m.win = nil
	timeLPs.Put(m)
}

// firstFit places each flow, in the given order, at the first of its
// candidate rounds win[f] whose aligned window of width rounds — the round
// itself at width 1 — still has room for its whole demand on both of its
// ports, a window holding width*c_p per port, and returns the position in
// win[f] chosen per flow (-1 for a flow no candidate can take). It needs no
// LP: the loads are one dense array of windowSlots per port, so it runs
// before any LP is built and decides whether one is. At width 1 the
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
// of fromRelease whose costs grow in t — LP (1)-(4) or the interval LP
// (5)-(8), of layout l, named what in errors — started at firstFit's
// placement in release order at l's width. The first solve is over
// fitHorizon, and its optimum stands when pricedOut certifies it; otherwise,
// or when first fit cannot place every flow, the LP is solved once over the
// rounds before inst.CongestionHorizon(), where it is always feasible and is
// the full LP. Each LP is released once solved. It returns the solve that
// stands, its horizon, and the stats of every solve.
func solveOverFirstFit(inst *switchnet.Instance, l layout, what string) (*lp.Solution, int, lp.Stats, error) {
	full := inst.CongestionHorizon()
	placed := firstFit(inst, releaseOrder(inst), fromRelease(inst, full), l.width)
	var st lp.Stats
	for horizon := fitHorizon(inst, placed, l.width, full); ; horizon = full {
		m := newTimeLP(inst, fromRelease(inst, horizon), l, placed)
		sol, err := m.solve()
		m.release()
		if err != nil {
			return nil, horizon, st, fmt.Errorf("core: %s at horizon %d: %w", what, horizon, err)
		}
		if sol.Status != lp.Optimal {
			return nil, horizon, st, fmt.Errorf("core: %s at horizon %d: status %v (%s)",
				what, horizon, sol.Status, describeLP(sol.Stats))
		}
		st.Add(sol.Stats)
		if horizon == full || pricedOut(inst, sol, horizon, l.cost) {
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
