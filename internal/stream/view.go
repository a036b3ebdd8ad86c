package stream

import (
	"fmt"
	"math"
	"math/bits"

	"flowsched/internal/switchnet"
)

// View is a Policy's window onto the runtime's pending store, scoped to
// the inputs ≡ k (mod Config.Shards): the whole switch at one shard (see
// the package docs for the scoped contract). It is valid only inside
// Pick: the pending set, the admission order, and the VOQ indexes are
// frozen for the duration (Take marks flows but departures apply after
// the round's picks complete), so iteration is always safe.
type View struct {
	rt *Runtime
	k  int
}

// holds reports whether input in, which has pending flows, is in the
// View's scope. Every such input sits in exactly one scope's active-input
// list, at the slot Runtime.activeInPos records, so two reads answer it
// without dividing by the shard count.
func (v *View) holds(in int) bool {
	rt := v.rt
	if rt.nshards == 1 {
		return true
	}
	act, pos := rt.activeIn[v.k], rt.activeInPos[in]
	return pos != noID && int(pos) < len(act) && act[pos] == int32(in)
}

// oldestRel returns the release round of the oldest pending flow in the
// View's scope (math.MaxInt64 when it has none): the key the scopes take
// turns by. Releases are non-decreasing along the admission list
// (checkFlow), so the scope's first flow on it is its oldest, and every
// VOQ head record in the scope is at least that old. A scope with no
// active input answers without the walk.
func (v *View) oldestRel() int64 {
	if len(v.rt.activeIn[v.k]) == 0 {
		return math.MaxInt64
	}
	rec := v.rt.ar.rec
	for id := v.rt.head; id != noID; id = rec[id].next {
		if v.holds(rec[id].inPort()) {
			return rec[id].rel
		}
	}
	return math.MaxInt64
}

// Round returns the current round t.
func (v *View) Round() int { return v.rt.round }

// Switch describes port counts and capacities.
func (v *View) Switch() switchnet.Switch { return v.rt.sw }

// Each calls fn for every pending flow in the View's scope in admission
// order (oldest first) until fn returns false. seq is the flow's global
// admission sequence number; id its (reusable) pending identifier. With
// several shards it walks the runtime's whole admission list and skips
// the flows outside the scope.
func (v *View) Each(fn func(id ID, seq int64, f switchnet.Flow) bool) {
	a := &v.rt.ar
	for id := v.rt.head; id != noID; id = a.rec[id].next {
		if !v.holds(a.rec[id].inPort()) {
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
// hot-record read: when OldestFirst serves a head and re-keys its list
// entry to the successor, Taken, Demand and Release all read the
// successor's one record.
func (v *View) Release(id ID) int64 { return v.rt.ar.rec[id].rel }

// QueueIn returns the number of pending flows at input port i (the queue
// depth the MaxWeight heuristic weighs by), 0 outside the View's scope.
// QueueOut returns the number of pending flows at output port j across
// the whole switch; its one reader, MaxWeight, runs only at Shards == 1.
func (v *View) QueueIn(i int) int {
	if !v.holds(i) {
		return 0
	}
	return v.rt.queueIn[i]
}

func (v *View) QueueOut(j int) int { return v.rt.queueOut[j] }

// InputFree and OutputFree return a port's remaining capacity this round.
// An input is in one scope, so only that scope's picks use it; an output
// offers what the turns earlier in the round left of it.
func (v *View) InputFree(i int) int  { return v.rt.sw.InCaps[i] - v.rt.loadIn[i] }
func (v *View) OutputFree(j int) int { return v.rt.sw.OutCaps[j] - v.rt.loadOut[j] }

// NumActiveInputs returns how many of the scope's input ports have pending
// flows; ActiveInput returns the k-th of them. The order is arbitrary but
// fixed during Pick.
func (v *View) NumActiveInputs() int  { return len(v.rt.activeIn[v.k]) }
func (v *View) ActiveInput(k int) int { return int(v.rt.activeIn[v.k][k]) }

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
// staleWords hands out those bits for reading; OldestFirst syncs its
// window or lists from them, so during a run only the installed policy calls
// headRow, each instance for its own scope's inputs.
func (v *View) voqWords(in int) []uint64 {
	nw := v.rt.nw
	return v.rt.actBits[in*nw : (in+1)*nw]
}

func (v *View) staleWords(in int) []uint64 { return v.rt.stale[in*v.rt.nw : (in+1)*v.rt.nw] }

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
// flows. Queues outside the scope are readable, but Take refuses their
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
// taking a dead id, or a flow outside the View's scope, fails the run:
// Take notes the first such id, and the run ends with its error once the
// round's picks are done.
//
//flowsched:hotpath
func (v *View) Take(id ID) bool {
	rt := v.rt
	a := &rt.ar
	if id < 0 || id >= len(a.rec) || !a.live(int32(id)) || !v.holds(a.rec[id].inPort()) {
		if rt.err == nil && !rt.refused {
			rt.refused, rt.refusedID = true, id
		}
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
	appendReserved(&rt.takes, int32(id))
	return true
}

// Fail aborts the run with a policy-contract error (e.g. one of the
// paper's heuristics matched a flow Take refused), unless the run already
// has one; the run ends once the round's picks are done.
func (v *View) Fail(format string, args ...any) { v.fail(fmt.Errorf(format, args...)) }

// fail is Fail with the error already built, for a pick whose failure
// path must not allocate.
func (v *View) fail(err error) {
	if rt := v.rt; rt.err == nil && !rt.refused {
		rt.err = err
	}
}
