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
// One time-indexed builder (timeLP.build) serves the three LPs: a layout
// says which one, and the builder writes every row in place into a reused
// lp.Problem. That Problem, the windows it is built over, first fit's
// placement and the solution are one of the two LP slots of a workspace
// (workspace.go), which holds every other piece of scratch a call throws
// away too: each exported entry point takes one from a pool and hands it
// back, so a warmed call allocates its result and nothing else.
//
// First fit (timeLP.fit) runs before any of the three LPs is built, and what
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
	ranked       bool  // slots are ranks in rank, not offsets
	rank         []int // the distinct windows in use, ascending, when ranked
}

// reset numbers the windows of win at width, keeping rank's capacity.
func (s *windowSlots) reset(win Windows, width int) {
	*s = windowSlots{width: width, lo: math.MaxInt, rank: s.rank[:0]}
	hi, count := -1, 0
	for _, rounds := range win {
		for _, t := range rounds {
			s.lo, hi = min(s.lo, t/width), max(hi, t/width)
		}
		count += len(rounds)
	}
	if count == 0 {
		s.lo = 0
		return
	}
	if s.n = hi - s.lo + 1; s.n <= count {
		return
	}
	s.ranked = true
	for _, rounds := range win {
		for _, t := range rounds {
			s.rank = append(s.rank, t/width)
		}
	}
	slices.Sort(s.rank)
	s.rank = slices.Compact(s.rank)
	s.n = len(s.rank)
}

// slot is the slot of round t, one of the rounds the slots were made from.
func (s *windowSlots) slot(t int) int {
	if !s.ranked {
		return t/s.width - s.lo
	}
	k, _ := slices.BinarySearch(s.rank, t/s.width)
	return k
}

// windowStore holds a family of windows and the rounds behind them, so that
// a slot rebuilds its windows in the memory of the last ones. What it
// returns is its own until its next call.
type windowStore struct {
	rounds []int
	win    Windows
}

// fromRelease gives every flow the candidate rounds [r_e, horizon), the
// variables of LP (1)-(4) and of the interval LP (5)-(8). The windows
// share one backing array.
func (s *windowStore) fromRelease(inst *switchnet.Instance, horizon int) Windows {
	s.rounds = grow(s.rounds, horizon)
	for t := range s.rounds {
		s.rounds[t] = t
	}
	s.win = grow(s.win, inst.N())
	for f, e := range inst.Flows {
		s.win[f] = s.rounds[e.Release:horizon:horizon]
	}
	return s.win
}

// response gives every flow the rounds [r_e, r_e+rho), the windows of the
// FS-MRT reduction. The windows share one backing array, each capped at its
// own end.
func (s *windowStore) response(inst *switchnet.Instance, rho int) Windows {
	s.rounds = grow(s.rounds, inst.N()*rho)
	s.win = grow(s.win, inst.N())
	for f, e := range inst.Flows {
		w := s.rounds[f*rho : (f+1)*rho : (f+1)*rho]
		for i := range w {
			w[i] = e.Release + i
		}
		s.win[f] = w
	}
	return s.win
}

// layout is what tells the paper's three time-indexed LPs apart; timeLP.build
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

// timeLP is one of a workspace's two LP slots: a family of windows (built in
// wins, or the caller's), first fit's placement in them, and the
// time-indexed LP built over them in its own lp.Problem, with the point its
// solve starts from and its solution. The build, the solve and Theorem 3's
// rounding all read the same rows. A slot carries nothing from one use to
// the next but capacity: fit, build and solve write everything they read,
// and each reads only what the one before it wrote in this use.
type timeLP struct {
	wins windowStore
	win  Windows
	// placed is first fit's placement in win: the position in win[f] chosen
	// for each flow, -1 for a flow none can take.
	placed []int
	load   []int // first fit's, per (window slot, port)
	slots  windowSlots
	p      lp.Problem
	// start is first fit's placement as a point of the LP: the covering row's
	// right-hand side on the variable chosen for each flow placed, 0
	// elsewhere.
	start []float64
	next  []int // per (port, window): the build's counting sort
	sol   lp.Solution
}

// build lays out the LP of layout l over the candidate rounds m.win, its
// start at m.placed (nil places nothing), writing every row in place into
// the Problem's arena, which is reserved at its final size.
func (m *timeLP) build(inst *switchnet.Instance, l layout) {
	win, placed := m.win, m.placed
	slots := &m.slots
	slots.reset(win, l.width)
	ports := inst.Switch.NumPorts()
	keys := func(f int) (in, out int) {
		e := inst.Flows[f]
		return inst.Switch.PortIndex(switchnet.In, e.In) * slots.n, inst.Switch.PortIndex(switchnet.Out, e.Out) * slots.n
	}
	// Count each port row's entries, one per variable on each of its two
	// ports, at next[key+1].
	m.next = zeroed(m.next, ports*slots.n+1)
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
	m.start = zeroed(m.start, n)
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
}

// solve runs the LP's solve from its start into the slot's Solution, which
// it returns; it is the slot's until the next solve.
func (m *timeLP) solve() (*lp.Solution, error) {
	return &m.sol, m.p.SolveInto(&m.sol, lp.SolveOptions{Start: m.start})
}

// fit is first fit: it places each flow, in the given order, at the first
// of its candidate rounds m.win[f] whose aligned window of width rounds —
// the round itself at width 1 — still has room for its whole demand on both
// of its ports, a window holding width*c_p per port, and records in
// m.placed, which it returns, the position in m.win[f] chosen per flow (-1
// for a flow no candidate can take). It needs no LP: the loads are one
// dense array of windowSlots per port, so it runs before any LP is built
// and decides whether one is. At width 1 the placement is a schedule that
// respects every port capacity, a feasible 0/1 point of LP (1)-(4) and of
// LP (19)-(21) over the same candidates; at width 4 it respects constraint
// (7) and is one of the interval LP (5)-(8). It is the point all three LPs'
// solves start from.
func (m *timeLP) fit(inst *switchnet.Instance, order []int, width int) []int {
	win := m.win
	slots := &m.slots
	slots.reset(win, width)
	ports := inst.Switch.NumPorts()
	load := zeroed(m.load, slots.n*ports)
	m.load = load
	placed := grow(m.placed, inst.N())
	m.placed = placed
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

// placedAll reports whether first fit placed every flow.
func placedAll(placed []int) bool { return !slices.Contains(placed, -1) }

// fitHorizon is the horizon an LP over the rounds [r_e, horizon) of
// fromRelease is solved at when first fit placed every flow there: the round
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
// (5)-(8), of layout l, named what in errors — started at first fit's
// placement in release order at l's width. The first solve is over
// fitHorizon, and its optimum stands when pricedOut certifies it; otherwise,
// or when first fit cannot place every flow, the LP is solved once over the
// rounds before inst.CongestionHorizon(), where it is always feasible and is
// the full LP. Every solve is in ws.lps[0]. It returns the solve that
// stands, which is that slot's until its next use, its horizon, and the
// stats of every solve.
func (ws *workspace) solveOverFirstFit(inst *switchnet.Instance, l layout, what string) (*lp.Solution, int, lp.Stats, error) {
	full := inst.CongestionHorizon()
	m := &ws.lps[0]
	m.win = m.wins.fromRelease(inst, full)
	placed := m.fit(inst, ws.releaseOrder(inst), l.width)
	var st lp.Stats
	for horizon := fitHorizon(inst, placed, l.width, full); ; horizon = full {
		// Cutting the windows at horizon keeps every position in them, so
		// the placement over the full windows is the start at any horizon
		// it fits in.
		m.win = m.wins.fromRelease(inst, horizon)
		m.build(inst, l)
		sol, err := m.solve()
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

// requireUnitDemands guards the Theorem 1 pipeline, which the paper states
// for unit flows.
func requireUnitDemands(inst *switchnet.Instance) error {
	if !inst.UnitDemands() {
		return fmt.Errorf("core: algorithm requires unit demands (Theorem 1)")
	}
	return nil
}
