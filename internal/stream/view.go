package stream

import "flowsched/internal/switchnet"

// View is a Policy's window onto one shard's slice of the runtime's
// incremental per-port state (the whole runtime when Config.Shards == 1;
// see the package docs for the shard-scoped contract). It is valid only
// inside Pick: the pending set, the admission order, and the VOQ indexes
// are frozen for the duration (Take marks flows but departures apply after
// the round's picks complete), so iteration is always safe.
type View struct {
	sh *shard
}

// Round returns the current round t.
func (v *View) Round() int { return v.sh.rt.round }

// Switch describes port counts and capacities.
func (v *View) Switch() switchnet.Switch { return v.sh.rt.sw }

// Each calls fn for every pending flow on the shard in admission order
// (oldest first) until fn returns false. seq is the flow's global
// admission sequence number; id its (reusable, shard-local) pending
// identifier.
func (v *View) Each(fn func(id ID, seq int64, f switchnet.Flow) bool) {
	a := &v.sh.ar
	for id := v.sh.head; id != noID; id = a.rec[id].next {
		if !fn(ID(id), a.seq[id], a.flow(id)) {
			return
		}
	}
}

// Flow returns the flow data of a pending id.
func (v *View) Flow(id ID) switchnet.Flow { return v.sh.ar.flow(int32(id)) }

// Demand returns just the demand of a pending id — the one field a
// feasibility check needs, read from the hot record without gathering the
// full flow across the arena's columns.
func (v *View) Demand(id ID) int { return int(v.sh.ar.rec[id].dem) }

// Release returns the release round of a pending id. Like Demand it is a
// hot-record read — the age-aware policies (OldestFirst, WeightedISLIP)
// order VOQ heads by it every round, so it shares the cache line a
// feasibility check already pulled.
func (v *View) Release(id ID) int64 { return v.sh.ar.rec[id].rel }

// QueueIn returns the number of the shard's pending flows at input port i
// (the queue depth the MaxWeight heuristic weighs by); QueueOut likewise
// for output port j. With a single shard these are the global depths.
func (v *View) QueueIn(i int) int  { return v.sh.queueIn[i] }
func (v *View) QueueOut(j int) int { return v.sh.queueOut[j] }

// InputFree returns input port i's remaining capacity this round; it is
// exact, because every input belongs to exactly one shard.
func (v *View) InputFree(i int) int { return v.sh.inCaps[i] - v.sh.loadIn[i] }

// OutputFree returns output port j's remaining capacity as visible to the
// shard this pass: its remaining carved budget during the propose phase,
// the global reconciled leftover during the reconcile phase (and simply
// the port's remaining capacity when Config.Shards == 1).
func (v *View) OutputFree(j int) int {
	sh := v.sh
	if sh.nsh == 1 {
		return sh.outCaps[j] - sh.loadOut[j]
	}
	if sh.phase == pickShared {
		return sh.rt.leftover[j]
	}
	return sh.budget(j) - sh.loadOut[j]
}

// NumActiveInputs returns how many of the shard's input ports have pending
// flows; ActiveInput returns the k-th of them. The order is arbitrary but
// fixed during Pick.
func (v *View) NumActiveInputs() int  { return len(v.sh.activeIn) }
func (v *View) ActiveInput(k int) int { return int(v.sh.activeIn[k]) }

// NextActiveVOQ returns the output port of the next non-empty VOQ at input
// in, at or after port from (0 <= from < NumOut) in circular port order,
// or -1 if the input has none, in O(NumOut/64) bitmap-word probes. It is
// a primitive for port-order rotation policies written outside this
// package. in must be one of the shard's inputs.
func (v *View) NextActiveVOQ(in, from int) int { return v.sh.nextActive(in, from) }

// voqWords and headRow are what the native policies sweep: input in's
// active-VOQ bitmap words (the array behind NextActiveVOQ) and its
// out-indexed row of head-age records (see voqHead), handed out as
// slices so a policy sweeping every active VOQ pays plain array reads
// instead of a call and an index recomputation per VOQ. Both are
// read-only for policies.
func (v *View) voqWords(in int) []uint64 {
	base := int(v.sh.bitBase[in])
	return v.sh.actBits[base : base+v.sh.nw]
}

func (v *View) headRow(in int) []voqHead {
	base := int(v.sh.voqBase[in])
	return v.sh.heads[base : base+v.sh.mOut]
}

// VOQHead returns the oldest pending flow on the (in, out) virtual output
// queue, or NoID if it is empty; VOQNext walks the queue toward younger
// flows. in must be one of the shard's inputs.
func (v *View) VOQHead(in, out int) ID {
	return ID(v.sh.voqFirst(v.sh.voq(in, out)))
}

func (v *View) VOQNext(id ID) ID { return ID(v.sh.voqNext(int32(id))) }

// EachVOQ calls fn for every pending flow on the (in, out) virtual output
// queue, oldest first, until fn returns false. It walks the queue's links
// through the arena: each step reads the hot record that fn's own Taken
// and Demand calls read. in must be one of the shard's inputs.
func (v *View) EachVOQ(in, out int, fn func(id ID) bool) {
	sh := v.sh
	for id := sh.voqFirst(sh.voq(in, out)); id != noID; id = sh.voqNext(id) {
		if !fn(ID(id)) {
			return
		}
	}
}

// Taken reports whether id was already selected this round.
func (v *View) Taken(id ID) bool { return v.sh.ar.taken(int32(id)) }

// Take schedules pending flow id in the current round if its input port
// and the visible output capacity (see OutputFree) both have room, and
// reports whether it did. Taking an id twice is a no-op returning false;
// taking a dead id fails the run.
//
//flowsched:hotpath
func (v *View) Take(id ID) bool {
	sh := v.sh
	a := &sh.ar
	if id < 0 || id >= a.len() || !a.live(int32(id)) {
		sh.fail("stream: policy %q took invalid pending id %d", sh.pol.Name(), id) //flowsched:allow alloc: cold contract-violation path: records the first policy error and stops the shard
		return false
	}
	if a.taken(int32(id)) {
		return false
	}
	rc := &a.rec[id]
	in, out, d := int(rc.in), int(rc.out), int(rc.dem)
	if sh.loadIn[in]+d > sh.inCaps[in] || v.OutputFree(out) < d {
		return false
	}
	if sh.loadIn[in] == 0 {
		sh.touchIn = append(sh.touchIn, int32(in)) //flowsched:allow alloc: touched-input scratch is length-reset on apply and grows to the port count
	}
	sh.loadIn[in] += d
	if sh.nsh > 1 && sh.phase == pickShared {
		sh.rt.leftover[out] -= d
	} else {
		if sh.loadOut[out] == 0 {
			sh.touchOut = append(sh.touchOut, int32(out)) //flowsched:allow alloc: touched-output scratch is length-reset on apply and grows to the port count
		}
		sh.loadOut[out] += d
	}
	rc.state |= stTaken
	sh.takes = append(sh.takes, int32(id)) //flowsched:allow alloc: takes buffer is length-reset on apply and grows to the per-round take high-water mark
	return true
}

// Fail aborts the run with a policy-contract error (e.g. a bridged
// sim.Policy returned an infeasible or duplicate pick).
func (v *View) Fail(format string, args ...any) {
	v.sh.fail(format, args...)
}
