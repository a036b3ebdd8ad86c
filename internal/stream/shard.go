package stream

import (
	"fmt"
	"math"
	"math/bits"

	"flowsched/internal/switchnet"
)

// View.OutputFree semantics, per pick pass (see shard.propose and
// shard.pickShared).
const (
	// pickBudget: OutputFree is the shard's remaining carved budget.
	pickBudget = iota + 1
	// pickShared: OutputFree is the reconciled global leftover pool.
	pickShared
)

// arrival is one admitted flow routed to a shard by the coordinator, with
// its global admission sequence number.
type arrival struct {
	flow switchnet.Flow
	seq  int64
}

// shard owns the pending state of the input ports congruent to idx modulo
// Runtime.nshards: their arena, admission-order sublist, virtual output
// queues (lists threaded through the arena), load tallies and policy
// instance. The shards are a partition, not a set of threads: the
// coordinator runs each one's propose, then the reconcile pass in a
// deterministic shard order (see Runtime.reconcile), then each one's
// apply, all in sequence on the coordinator's goroutine.
// A shard retires into the runtime's one set of completion metrics and
// its one verification buffer.
type shard struct {
	rt  *Runtime
	idx int
	pol Policy

	// Pending arena; head/tail delimit the shard's admission-order
	// sublist.
	ar    arena
	head  int32
	tail  int32
	count int

	// inbox holds arrivals routed by the coordinator since the shard's
	// last propose, in source order.
	inbox []arrival

	// Per-port tallies. queueIn/queueOut count the shard's pending flows;
	// loadIn tracks the round's scheduled demand at owned inputs; loadOut
	// tracks propose-phase usage against the shard's carved budgets.
	queueIn, queueOut []int
	loadIn, loadOut   []int
	touchIn, touchOut []int32

	// Cached partition geometry: shard count, output-port count, and
	// bitmap words per input, plus the port capacities (read-only views
	// of the switch's slices). voqBase/bitBase are per-global-input
	// lookup tables (VOQ base, bitmap word base) that keep integer
	// division by the shard count out of the hot paths.
	nsh, mOut, nw   int
	inCaps, outCaps []int
	voqBase         []int32
	bitBase         []int32

	// Virtual output queues over owned inputs, indexed by
	// (in/nsh)*mOut + out (see shard.voq): the ends and length of each
	// VOQ's list through the arena, plus the mirrored head-age record the
	// age-aware policies sweep (see arena.go).
	vqs   []voqState
	heads []voqHead

	// actBits holds, per owned input, the bitmap (nw words) of output
	// ports with a non-empty VOQ there: RoundRobin, OldestFirst and
	// WeightedISLIP sweep its words, and View.NextActiveVOQ probes them.
	actBits []uint64
	// activeIn lists owned input ports with any pending flow (global port
	// numbers); activeInPos is each input's index there.
	activeIn    []int32
	activeInPos []int32

	// takes holds the round's picks until apply retires them at the end
	// of the same round.
	takes []int32
	view  View
	phase int
	err   error
}

// newShard builds the shard owning inputs congruent to idx mod rt.nshards.
func newShard(rt *Runtime, idx int) *shard {
	mIn, mOut := rt.sw.NumIn(), rt.sw.NumOut()
	nLocal := (mIn - idx + rt.nshards - 1) / rt.nshards
	nw := (mOut + 63) / 64
	sh := &shard{
		rt:          rt,
		idx:         idx,
		head:        noID,
		tail:        noID,
		nsh:         rt.nshards,
		mOut:        mOut,
		nw:          nw,
		inCaps:      rt.sw.InCaps,
		outCaps:     rt.sw.OutCaps,
		voqBase:     make([]int32, mIn),
		bitBase:     make([]int32, mIn),
		queueIn:     make([]int, mIn),
		queueOut:    make([]int, mOut),
		loadIn:      make([]int, mIn),
		loadOut:     make([]int, mOut),
		vqs:         make([]voqState, nLocal*mOut),
		heads:       make([]voqHead, nLocal*mOut),
		actBits:     make([]uint64, nLocal*nw),
		activeIn:    make([]int32, 0, nLocal),
		activeInPos: make([]int32, mIn),
	}
	for i := range sh.vqs {
		sh.vqs[i] = voqState{head: noID, tail: noID}
	}
	for i := 0; i < mIn; i++ {
		li := i / rt.nshards
		sh.voqBase[i] = int32(li * mOut)
		sh.bitBase[i] = int32(li * nw)
	}
	for i := range sh.activeInPos {
		sh.activeInPos[i] = noID
	}
	sh.view.sh = sh
	return sh
}

// voq returns the shard-local VOQ index of (in, out); in must be owned.
func (sh *shard) voq(in, out int) int {
	return int(sh.voqBase[in]) + out
}

// nextActive returns the output port of the next non-empty VOQ at owned
// input in, at or after port from in circular port order; -1 if the input
// has none. Cost is O(mOut/64) word probes.
func (sh *shard) nextActive(in, from int) int {
	base := int(sh.bitBase[in])
	words := sh.actBits[base : base+sh.nw]
	w := from >> 6
	if masked := words[w] &^ (1<<uint(from&63) - 1); masked != 0 {
		return w<<6 + bits.TrailingZeros64(masked)
	}
	for i := w + 1; i < len(words); i++ {
		if words[i] != 0 {
			return i<<6 + bits.TrailingZeros64(words[i])
		}
	}
	for i := 0; i <= w; i++ {
		if words[i] != 0 {
			return i<<6 + bits.TrailingZeros64(words[i])
		}
	}
	return -1
}

// oldestRel returns the release round of the shard's oldest pending flow
// (math.MaxInt64 when it has none) — the key the reconcile pass orders
// shards by. Releases are non-decreasing in source order (checkFlow) and
// routing preserves that order per shard, so the admission sublist is
// release-sorted, every VOQ is a subsequence of it, and its head carries
// the minimum over all VOQ head records.
func (sh *shard) oldestRel() int64 {
	if sh.head == noID {
		return math.MaxInt64
	}
	return sh.ar.rec[sh.head].rel
}

// budget is the shard's carve of output j's capacity this round: an equal
// split of OutCaps[j] across the shards, with the remainder rotating by
// round so no shard permanently owns the spare units.
func (sh *shard) budget(j int) int {
	c := sh.outCaps[j]
	k := sh.nsh
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

// propose is the shard's first leg of a round: it threads the arrivals
// the coordinator routed to it, expires what can no longer meet the
// deadline (AdmitDeadline), and picks against its carved output budgets.
// It returns how many flows it expired.
//
//flowsched:hotpath
func (sh *shard) propose() int {
	sh.admitAll()
	expired := 0
	if sh.rt.deadline > 0 {
		expired = sh.expire()
	}
	if sh.count > 0 {
		sh.phase = pickBudget
		sh.pol.Pick(&sh.view)
	}
	return expired
}

// expire unthreads pending flows that can no longer meet the deadline and
// returns how many: completing a flow this round gives it response
// round+1-release, so any flow with round+1-release > Deadline is past
// saving. The admission sublist follows source order and releases are
// non-decreasing along it, so walking from the head and stopping at the
// first survivor sees every expirable flow. Runs after the previous
// round's apply (no retired flow is still threaded) and before Pick (an
// expired flow is never scheduled), which keeps the schedule
// verifier-clean and deterministic.
func (sh *shard) expire() int {
	a := &sh.ar
	horizon := int64(sh.rt.round + 1 - sh.rt.deadline)
	n := 0
	for sh.head != noID && a.rec[sh.head].rel < horizon {
		sh.depart(sh.head)
		n++
	}
	return n
}

// pickShared is the shard's leg of the reconcile pass: a second Pick
// against the global leftover pool, at most once per round, in the order
// Runtime.reconcile computes.
//
//flowsched:hotpath
func (sh *shard) pickShared() {
	if sh.count > len(sh.takes) {
		sh.phase = pickShared
		sh.pol.Pick(&sh.view)
	}
}

// admitAll threads the inbox into the shard's pending structures.
func (sh *shard) admitAll() {
	for _, ar := range sh.inbox {
		sh.admit(ar)
	}
	sh.inbox = sh.inbox[:0]
}

// admit threads one arrival into the pending structures.
func (sh *shard) admit(av arrival) {
	f := av.flow
	a := &sh.ar
	id := a.alloc()
	vi := sh.voq(f.In, f.Out)
	a.rec[id] = flowRec{
		rel: int64(f.Release), prev: sh.tail, next: noID,
		dem: int32(f.Demand), in: int16(f.In), out: int16(f.Out), state: stLive,
	}
	a.seq[id] = av.seq
	if sh.tail != noID {
		a.rec[sh.tail].next = id
	} else {
		sh.head = id
	}
	sh.tail = id

	if sh.vqs[vi].live == 0 {
		sh.actBits[int(sh.bitBase[f.In])+f.Out>>6] |= 1 << uint(f.Out&63)
	}
	sh.voqPush(vi, id)

	if sh.queueIn[f.In] == 0 {
		sh.activeInPos[f.In] = int32(len(sh.activeIn))
		sh.activeIn = append(sh.activeIn, int32(f.In)) //flowsched:allow alloc: active-input list grows to the owned-port count
	}
	sh.queueIn[f.In]++
	sh.queueOut[f.Out]++
	sh.count++
}

// depart unthreads a scheduled flow from every pending structure.
func (sh *shard) depart(id int32) {
	a := &sh.ar
	r := &a.rec[id]
	in, out := int(r.in), int(r.out)

	if r.prev != noID {
		a.rec[r.prev].next = r.next
	} else {
		sh.head = r.next
	}
	if r.next != noID {
		a.rec[r.next].prev = r.prev
	} else {
		sh.tail = r.prev
	}

	vi := sh.voq(in, out)
	if sh.voqRemove(vi, id) {
		sh.actBits[int(sh.bitBase[in])+out>>6] &^= 1 << uint(out&63)
	}

	sh.queueIn[in]--
	sh.queueOut[out]--
	if sh.queueIn[in] == 0 {
		pos := sh.activeInPos[in]
		last := len(sh.activeIn) - 1
		moved := sh.activeIn[last]
		sh.activeIn[pos] = moved
		sh.activeIn = sh.activeIn[:last]
		sh.activeInPos[moved] = pos
		sh.activeInPos[in] = noID
	}
	sh.count--
	a.free(id)
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
	a := &sh.ar
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
		sh.depart(id)
	}
	sh.takes = sh.takes[:0]
	for _, p := range sh.touchIn {
		sh.loadIn[p] = 0
	}
	for _, p := range sh.touchOut {
		sh.loadOut[p] = 0
	}
	sh.touchIn = sh.touchIn[:0]
	sh.touchOut = sh.touchOut[:0]
}
