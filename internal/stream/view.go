package stream

import (
	"math/bits"

	"flowsched/internal/switchnet"
)

// View is a Policy's window onto the runtime's pending store, scoped to
// one shard (the whole runtime when Config.Shards == 1; see the package
// docs for the shard-scoped contract). It is valid only inside Pick: the
// pending set, the admission order, and the VOQ indexes are frozen for the
// duration (Take marks flows but departures apply after the round's picks
// complete), so iteration is always safe.
type View struct {
	rt *Runtime
	sh *shard
}

// Round returns the current round t.
func (v *View) Round() int { return v.rt.round }

// Switch describes port counts and capacities.
func (v *View) Switch() switchnet.Switch { return v.rt.sw }

// Each calls fn for every pending flow at the shard's inputs in admission
// order (oldest first) until fn returns false. seq is the flow's global
// admission sequence number; id its (reusable) pending identifier. With
// several shards it walks the runtime's whole admission list and skips
// the other shards' flows.
func (v *View) Each(fn func(id ID, seq int64, f switchnet.Flow) bool) {
	rt, sh := v.rt, v.sh
	a := &rt.ar
	for id := rt.head; id != noID; id = a.rec[id].next {
		if rt.nshards > 1 && !sh.holds(a.rec[id].inPort()) {
			continue
		}
		if !fn(ID(id), a.seq[id], a.flow(id)) {
			return
		}
	}
}

// Demand returns just the demand of a pending id — the one field a
// feasibility check needs, read from the hot record without gathering the
// full flow across the arena's columns.
func (v *View) Demand(id ID) int { return int(v.rt.ar.rec[id].dem) }

// Release returns the release round of a pending id. Like Demand it is a
// hot-record read: when OldestFirst serves a head and offers its
// successor to the heap, Taken, Demand and Release all read the
// successor's one record.
func (v *View) Release(id ID) int64 { return v.rt.ar.rec[id].rel }

// QueueIn returns the number of pending flows at input port i (the queue
// depth the MaxWeight heuristic weighs by), 0 for another shard's input.
// QueueOut returns the number of pending flows at output port j across
// the whole switch; its one reader, MaxWeight, runs only at Shards == 1.
func (v *View) QueueIn(i int) int {
	if v.rt.nshards > 1 && !v.sh.holds(i) {
		return 0
	}
	return v.rt.queueIn[i]
}

func (v *View) QueueOut(j int) int { return v.rt.queueOut[j] }

// InputFree and OutputFree return a port's remaining capacity this round.
// An input belongs to one shard, so only that shard's picks use it; an
// output offers what the shards that took their turn earlier in the round
// left of it.
func (v *View) InputFree(i int) int  { return v.rt.sw.InCaps[i] - v.rt.loadIn[i] }
func (v *View) OutputFree(j int) int { return v.rt.sw.OutCaps[j] - v.rt.loadOut[j] }

// NumActiveInputs returns how many of the shard's input ports have pending
// flows; ActiveInput returns the k-th of them. The order is arbitrary but
// fixed during Pick.
func (v *View) NumActiveInputs() int  { return len(v.sh.activeIn) }
func (v *View) ActiveInput(k int) int { return int(v.sh.activeIn[k]) }

// voqWords and headRow are what the native policies sweep: input in's
// active-VOQ bitmap words and its
// out-indexed row of head-age records (see voqHead), handed out as
// slices so a policy sweeping every active VOQ pays plain array reads
// instead of a call and an index recomputation per VOQ. Policies only
// read them.
//
// headRow is also the one writer of head-age records: before returning
// the row it refreshes the entries of input in's stale bitmap that are
// still active from their heads' hot records, and clears the bitmap. A
// row entry is current for every active VOQ, as of the last retirement;
// an inactive VOQ's entry means nothing. A second call in the same pick
// finds nothing stale and costs NumOut/64 word reads.
func (v *View) voqWords(in int) []uint64 {
	nw := v.rt.nw
	return v.rt.actBits[in*nw : (in+1)*nw]
}

func (v *View) headRow(in int) []voqHead {
	rt := v.rt
	m, nw := rt.mOut, rt.nw
	row := rt.heads[in*m : (in+1)*m]
	stale := rt.stale[in*nw : (in+1)*nw]
	act := rt.actBits[in*nw : (in+1)*nw]
	for wi, w := range stale {
		if w == 0 {
			continue
		}
		stale[wi] = 0
		for w &= act[wi]; w != 0; w &= w - 1 {
			out := wi<<6 + bits.TrailingZeros64(w)
			r := &rt.ar.rec[rt.vqs[in*m+out].head]
			row[out] = voqHead{rel: r.rel, dem: r.dem}
		}
	}
	return row
}

// VOQHead returns the oldest pending flow on the (in, out) virtual output
// queue, or NoID if it is empty; VOQNext walks the queue toward younger
// flows. Another shard's queues are readable, but Take refuses their
// flows.
func (v *View) VOQHead(in, out int) ID {
	return ID(v.rt.vqs[in*v.rt.mOut+out].head)
}

func (v *View) VOQNext(id ID) ID { return ID(v.rt.ar.rec[id].vnext) }

// Taken reports whether id was already selected this round.
func (v *View) Taken(id ID) bool { return v.rt.ar.taken(int32(id)) }

// Take schedules pending flow id in the current round if its input and
// output ports both have room (see InputFree and OutputFree), and
// reports whether it did. Taking an id twice is a no-op returning false;
// taking a dead id, or a flow at another shard's input, fails the run.
//
//flowsched:hotpath
func (v *View) Take(id ID) bool {
	rt, sh := v.rt, v.sh
	a := &rt.ar
	if id < 0 || id >= len(a.rec) || !a.live(int32(id)) || (rt.nshards > 1 && !sh.holds(a.rec[id].inPort())) {
		sh.fail("stream: policy %q took id %d, which is not a pending flow at its shard's inputs", sh.pol.Name(), id) //flowsched:allow alloc: cold contract-violation path: records the first policy error and stops the shard (TestRunRejectsBadIndexAndDup)
		return false
	}
	if a.taken(int32(id)) {
		return false
	}
	rc := &a.rec[id]
	in, out, d := rc.inPort(), rc.outPort(), int(rc.dem)
	if rt.loadIn[in]+d > rt.sw.InCaps[in] || rt.loadOut[out]+d > rt.sw.OutCaps[out] {
		return false
	}
	// A port joins its touched list when its load leaves 0, once a round,
	// so the lists never outgrow the port counts initStore reserved; the
	// capacity check above bounds takes at what reserveRound reserved.
	if rt.loadIn[in] == 0 {
		appendReserved(&rt.touchIn, int32(in))
	}
	rt.loadIn[in] += d
	if rt.loadOut[out] == 0 {
		appendReserved(&rt.touchOut, int32(out))
	}
	rt.loadOut[out] += d
	rc.out |= stTaken
	appendReserved(&sh.takes, int32(id))
	return true
}

// Fail aborts the run with a policy-contract error (e.g. one of the
// paper's heuristics matched a flow Take refused).
func (v *View) Fail(format string, args ...any) {
	v.sh.fail(format, args...)
}
