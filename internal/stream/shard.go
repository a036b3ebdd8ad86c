package stream

import (
	"fmt"
	"math"
)

// shard is one part of the input-port partition: the input ports
// congruent to idx modulo Runtime.nshards, their policy instance and the
// round's picks at them. The pending flows themselves live in the
// runtime's one store (see arena.go); a shard only counts its own and
// lists its inputs that have any. The shards are a partition, not a set
// of threads: each round the coordinator runs every shard's pick once,
// in the turn order Runtime.orderTurns computes, in sequence on the
// coordinator's goroutine, and Runtime.retire then retires every shard's
// picks in one pass.
type shard struct {
	rt  *Runtime
	idx int
	pol Policy

	// count is the number of pending flows at the shard's inputs.
	count int

	// activeIn lists the shard's input ports with any pending flow (global
	// port numbers); Runtime.activeInPos is each input's index there. Its
	// capacity, reserved by newShard, is the count of inputs the shard
	// owns.
	activeIn []int32

	// takes holds the round's picks until Runtime.retire retires them at
	// the end of the same round. Its capacity, reserved by
	// Runtime.reserveRound, is the most flows one round can pick at the
	// shard's inputs.
	takes []int32
	view  View
	err   error
}

// newShard builds the shard owning inputs congruent to idx mod rt.nshards.
func newShard(rt *Runtime, idx int) *shard {
	owned := (rt.sw.NumIn() - idx + rt.nshards - 1) / rt.nshards
	sh := &shard{rt: rt, idx: idx, activeIn: make([]int32, 0, owned)}
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
// (math.MaxInt64 when it has none) — the key the shards take turns by.
// Releases are non-decreasing along the runtime's admission list
// (checkFlow), so the shard's first flow on it is its oldest, and every
// VOQ head record of the shard is at least that old.
func (sh *shard) oldestRel() int64 {
	rt := sh.rt
	rec := rt.ar.rec
	for id := rt.head; id != noID; id = rec[id].next {
		if sh.holds(rec[id].inPort()) {
			return rec[id].rel
		}
	}
	return math.MaxInt64
}

// fail records the shard's first error (policy contract violations land
// here via View.Fail); the coordinator surfaces it in shard order.
func (sh *shard) fail(format string, args ...any) {
	if sh.err == nil {
		sh.err = fmt.Errorf(format, args...) //flowsched:allow alloc: cold error path: runs at most once, the shard stops scheduling after (TestRunRejectsBadIndexAndDup)
	}
}

// pick runs the shard's policy for its one turn of the round, when it
// has a pending flow: after admission and expiry, against the capacity
// the shards before it in the turn order left (see Runtime.orderTurns).
//
//flowsched:hotpath
func (sh *shard) pick() {
	if sh.count > 0 {
		sh.pol.Pick(&sh.view)
	}
}
