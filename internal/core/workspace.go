package core

import (
	"slices"
	"sync"

	"flowsched/internal/bvn"
	"flowsched/internal/rounding"
	"flowsched/internal/switchnet"
	"flowsched/internal/verify"
)

// workspace is the scratch of one call of the paper's offline pipeline:
// every piece of memory ARTLowerBound, IterativeRound, SolveART,
// MRTLowerBound, SolveMRT, SolveTimeConstrained and TrivialMRTLowerBound
// work in and throw away. What a call returns is allocated fresh and is the
// caller's; nothing it returns points into a workspace.
//
// A workspace is reset, not trusted: every array in it is resized and
// written by the step that reads it, before it reads it, in the same call,
// so a result is a function of the call's arguments alone whichever
// workspace served it and whatever that one served before.
type workspace struct {
	// lps are the two LP slots. Every call builds and solves in lps[0] but
	// searchRho, which holds the feasible upper end of its search in one
	// slot while it probes the next rho in the other.
	lps [2]timeLP
	// order is the order first fit takes the flows in, key what it is
	// sorted by.
	order, key []int
	// The iterative rounding's support, its pseudo-schedule (SolveART's),
	// and the regrouped LP's port lists: each port's variables, port by port
	// in portVars, and where each port's run ends.
	entries  []entry
	ps       PseudoSchedule
	portEnd  []int
	portVars []int
	// TrivialMRTLowerBound's events, and where each port's run of them goes.
	events    []portEvent
	eventNext []int
	// Theorem 1's conversion: the flows, window by window in inWin, where
	// each window's run ends, one window's edges, and the edge colouring's
	// memory.
	inWin  []int
	winEnd []int
	edges  [][2]int
	colors bvn.Scratch
	// Theorem 3's rounding system, and the oracle that checks Theorems 1
	// and 3's schedules at their raised capacities.
	sys     rounding.System
	checker verify.Checker
}

// workspaces is core's one pool: each exported entry point takes a workspace
// from it and puts it back when it returns, so a call allocates its result
// and only what its workspace has not yet grown to. A workspace is used by
// one call at a time; calls on other goroutines take others.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// getWorkspace takes a workspace from the pool.
func getWorkspace() *workspace { return workspaces.Get().(*workspace) }

// put hands ws back to the pool, dropping the one thing in it that can be
// the caller's: windows SolveTimeConstrained was given.
func (ws *workspace) put() {
	for i := range ws.lps {
		ws.lps[i].win = nil
	}
	workspaces.Put(ws)
}

// releaseOrder returns the flows sorted by release round, ties in index
// order: the order first fit takes them in for LP (1)-(4) and LP (5)-(8),
// and for every rho of searchRho. It is ws's until the next order.
func (ws *workspace) releaseOrder(inst *switchnet.Instance) []int {
	ws.key = grow(ws.key, inst.N())
	for f, e := range inst.Flows {
		ws.key[f] = e.Release
	}
	return ws.orderBy()
}

// deadlineOrder returns the flows sorted by the last round of their
// windows, ties in index order: the order first fit takes them in for LP
// (19)-(21). It is ws's until the next order.
//
// That LP, over a window family, is windowLayout: x_et for t in R(e), an
// equality row per flow — constraint (20) — and a capacity row per (port,
// round) that some window touches — constraint (19). Theorem 3's rounding
// system has the same rows and reads them from the LP. Its start is x_et = 1
// where first fit placed flow e. The LP is built only where that placement
// leaves a flow out, so phase 1 works on the unplaced flows only; only
// whether the LP is feasible and Theorem 3's guarantee — which holds at any
// vertex — are used, so the solve may start there.
func (ws *workspace) deadlineOrder(win Windows) []int {
	ws.key = grow(ws.key, len(win))
	for f, rounds := range win {
		ws.key[f] = slices.Max(rounds)
	}
	return ws.orderBy()
}

// orderBy returns the flows sorted by ws.key, ties in index order.
func (ws *workspace) orderBy() []int {
	key := ws.key
	order := grow(ws.order, len(key))
	ws.order = order
	for f := range order {
		order[f] = f
	}
	slices.SortStableFunc(order, func(a, b int) int { return key[a] - key[b] })
	return order
}

// grow returns s resized to n, reallocated only when its capacity is short;
// the contents are whatever s held.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed is grow with every entry zero.
func zeroed[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}
