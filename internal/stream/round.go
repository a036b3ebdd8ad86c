package stream

import "flowsched/internal/switchnet"

// reserveRound sizes what one round fills: takes and, with verification
// on, the oracle's scratch. Take picks a flow only while both its ports
// have room, and every flow carries at least one unit, so a round picks
// at most min(Σ input caps, Σ output caps) flows, and never more than
// MaxPending, the most flows pending at once. The reservations only
// grow, so a Reload that raises MaxPending widens them and one that
// lowers MaxPending below the resident count keeps room for them. It
// runs only between rounds, when takes is empty (in New and at the
// quiescent point).
func (rt *Runtime) reserveRound() {
	in, out := 0, 0
	for _, c := range rt.sw.InCaps {
		in += c
	}
	for _, c := range rt.sw.OutCaps {
		out += c
	}
	n := min(in, out, rt.cfg.MaxPending)
	if n > cap(rt.takes) {
		rt.takes = make([]int32, 0, n)
	}
	if rt.cfg.VerifyEvery > 0 && n > cap(rt.vFlows) {
		rt.vFlows = make([]switchnet.Flow, 0, n)
		rt.vRounds = make([]int, 0, n)
	}
}

// checkRound runs the oracle, with verification on, over the round's
// picks, on the coordinator, after the OnSchedule callbacks and before
// the picks retire, and marks the window as having checked a round. The
// picks are all of the round's load, so the oracle's per-(port, round)
// capacity check is exact, and they are one round, so the oracle sweeps
// them without sorting. A round that picked nothing is not checked. The
// verdict never changes the schedule. It returns the check's wall time
// in nanoseconds when a recorder is attached, 0 otherwise, and the
// oracle's error.
func (rt *Runtime) checkRound() (ns int64, err error) {
	n := len(rt.takes)
	if n == 0 || rt.cfg.VerifyEvery == 0 {
		return
	}
	rt.vchecked = true
	t0 := rt.now()
	flows, rounds := rt.vFlows[:n], rt.vRounds[:n]
	for i, id := range rt.takes {
		flows[i], rounds[i] = rt.ar.flow(id), rt.round
	}
	inst := switchnet.Instance{Switch: rt.sw, Flows: flows}
	sched := switchnet.Schedule{Round: rounds}
	_, err = rt.checker.Check(&inst, &sched, rt.caps)
	return rt.since(t0), err
}

// retire ends the round: it folds the round's picks into the completion
// metrics — one write section of the sliding window, one batch of atomics
// — departs them in takes order, and clears the round's port loads. It
// runs after the OnSchedule callbacks and the round's check.
//
//flowsched:hotpath
func (rt *Runtime) retire() {
	n := len(rt.takes)
	if n == 0 {
		return
	}
	t := rt.round
	bound := rt.cfg.ResponseBound
	var sum, slow int64
	maxR := int(rt.mMaxResp.Load())
	rt.win.Begin(t)
	for _, id := range rt.takes {
		resp := t + 1 - int(rt.ar.rec[id].rel)
		sum += int64(resp)
		if resp > maxR {
			maxR = resp
		}
		if bound > 0 && resp > bound {
			slow++
		}
		rt.win.Observe(resp)
	}
	rt.win.End()
	rt.mCompleted.Add(int64(n))
	rt.mTotalResp.Add(sum)
	rt.mMaxResp.Store(int64(maxR))
	if slow > 0 {
		rt.mSlowResp.Add(slow)
	}

	for _, id := range rt.takes {
		rt.depart(id)
	}
	rt.takes = rt.takes[:0]
	for _, p := range rt.touchIn {
		rt.loadIn[p] = 0
	}
	for _, p := range rt.touchOut {
		rt.loadOut[p] = 0
	}
	rt.touchIn, rt.touchOut = rt.touchIn[:0], rt.touchOut[:0]
}

// setRound advances time to t. With verification on it counts the
// window if the clock leaves it.
func (rt *Runtime) setRound(t int) {
	if w := rt.cfg.VerifyEvery; w > 0 && t >= rt.vstart+w {
		// Rounds only move forward, so every round of the window has been
		// checked: one flush counts it, and the empty windows an idle jump
		// crosses are skipped in a single step.
		rt.flushWindow()
		rt.vstart += (t - rt.vstart) / w * w
	}
	rt.round = t
	rt.mRound.Store(int64(t))
}

// flushWindow counts the window in WindowsVerified if it checked a
// round. Every round it checked was accepted: a rejected one ends the
// run before its window can flush.
func (rt *Runtime) flushWindow() {
	if rt.vchecked {
		rt.vchecked = false
		rt.mWindows.Add(1)
	}
}
