package stream

import (
	"fmt"
	"math"
)

// View.OutputFree semantics, per pick pass (see shard.pick).
const (
	// pickBudget: OutputFree is the shard's remaining carved budget.
	pickBudget = iota + 1
	// pickShared: OutputFree is the reconciled global leftover pool.
	pickShared
)

// shard is one part of the carve-and-reconcile protocol: the input ports
// congruent to idx modulo Runtime.nshards, their policy instance and the
// round's picks at them. The pending flows themselves live in the
// runtime's one store (see arena.go); a shard only counts its own, lists
// its inputs that have any, and tracks its usage of its carved output
// budgets. The shards are a partition, not a set of threads: the
// coordinator runs each one's propose pick, then the reconcile pass in a
// deterministic shard order (see Runtime.reconcile), then each one's
// apply, all in sequence on the coordinator's goroutine.
type shard struct {
	rt  *Runtime
	idx int
	pol Policy

	// count is the number of pending flows at the shard's inputs.
	count int

	// loadOut tracks propose-phase usage against the shard's carved
	// budgets; touchIn/touchOut list the ports whose load (the runtime's
	// loadIn, the shard's loadOut) apply resets.
	loadOut           []int
	touchIn, touchOut []int32

	// activeIn lists the shard's input ports with any pending flow (global
	// port numbers); Runtime.activeInPos is each input's index there.
	activeIn []int32

	// takes holds the round's picks until apply retires them at the end
	// of the same round.
	takes []int32
	view  View
	phase int
	err   error
}

// newShard builds the shard owning inputs congruent to idx mod rt.nshards.
func newShard(rt *Runtime, idx int) *shard {
	sh := &shard{rt: rt, idx: idx, loadOut: make([]int, rt.sw.NumOut())}
	sh.view = View{rt: rt, sh: sh}
	return sh
}

// holds reports whether input in has pending flows on this shard. Every
// input with pending flows sits in exactly one shard's activeIn list, at
// the slot Runtime.activeInPos records, so two reads answer it without
// dividing by the shard count.
func (sh *shard) holds(in int) bool {
	pos := sh.rt.activeInPos[in]
	return pos != noID && int(pos) < len(sh.activeIn) && sh.activeIn[pos] == int32(in)
}

// oldestRel returns the release round of the shard's oldest pending flow
// (math.MaxInt64 when it has none) — the key the reconcile pass orders
// shards by. Releases are non-decreasing along the runtime's admission
// list (checkFlow), so the shard's first flow on it is its oldest, and
// every VOQ head record of the shard is at least that old.
func (sh *shard) oldestRel() int64 {
	rt := sh.rt
	rec := rt.ar.rec
	for id := rt.head; id != noID; id = rec[id].next {
		if sh.holds(int(rec[id].in)) {
			return rec[id].rel
		}
	}
	return math.MaxInt64
}

// budget is the shard's carve of output j's capacity this round: an equal
// split of OutCaps[j] across the shards, with the remainder rotating by
// round so no shard permanently owns the spare units.
func (sh *shard) budget(j int) int {
	c := sh.rt.sw.OutCaps[j]
	k := sh.rt.nshards
	if k == 1 {
		return c
	}
	b := c / k
	if r := c % k; r != 0 {
		rot := sh.idx - (j+sh.rt.round)%k
		if rot < 0 {
			rot += k
		}
		if rot < r {
			b++
		}
	}
	return b
}

// fail records the shard's first error (policy contract violations land
// here via View.Fail); the coordinator surfaces it in shard order.
func (sh *shard) fail(format string, args ...any) {
	if sh.err == nil {
		sh.err = fmt.Errorf(format, args...) //flowsched:allow alloc: cold error path: runs at most once, the shard stops scheduling after
	}
}

// pick runs the shard's policy for one pass of the round, when it has a
// pending flow not yet taken: pickBudget is the propose leg, against its
// carved output budgets, after admission and expiry; pickShared its leg
// of the reconcile pass, against the global leftover pool, in the order
// Runtime.reconcile computes.
//
//flowsched:hotpath
func (sh *shard) pick(phase int) {
	if sh.count > len(sh.takes) {
		sh.phase = phase
		sh.pol.Pick(&sh.view)
	}
}

// apply retires the round's taken flows: the runtime's completion metrics
// and verification buffer, structure unlinking, and load reset. It runs
// at the end of the round the flows were picked in, after the
// coordinator's OnSchedule callbacks for that round have fired.
//
//flowsched:hotpath
func (sh *shard) apply() {
	if len(sh.takes) == 0 {
		return
	}
	rt := sh.rt
	a := &rt.ar
	t := rt.round
	verifying := rt.cfg.VerifyEvery > 0
	bound := rt.respBound
	var n, sum, slow int64
	maxR := int(rt.mMaxResp.Load())
	rt.win.Begin()
	for _, id := range sh.takes {
		resp := t + 1 - int(a.rec[id].rel)
		n++
		sum += int64(resp)
		if resp > maxR {
			maxR = resp
		}
		if bound > 0 && resp > bound {
			slow++
		}
		rt.win.Observe(t, resp)
		if verifying {
			rt.bufFlows = append(rt.bufFlows, a.flow(id)) //flowsched:allow alloc: verification buffer, nil unless verify mode is on; amortized there
			rt.bufRounds = append(rt.bufRounds, t)        //flowsched:allow alloc: grows in lockstep with bufFlows under verify mode only
		}
	}
	rt.win.End()
	rt.mCompleted.Add(n)
	rt.mTotalResp.Add(sum)
	rt.mMaxResp.Store(int64(maxR))
	if slow > 0 {
		rt.mSlowResp.Add(slow)
	}

	for _, id := range sh.takes {
		rt.depart(sh, id)
	}
	sh.takes = sh.takes[:0]
	for _, p := range sh.touchIn {
		rt.loadIn[p] = 0
	}
	for _, p := range sh.touchOut {
		sh.loadOut[p] = 0
	}
	sh.touchIn = sh.touchIn[:0]
	sh.touchOut = sh.touchOut[:0]
}
