package stream

import "flowsched/internal/switchnet"

// The runtime's one pending store: a struct-of-arrays arena addressed by
// flow ID, the admission-order list and every virtual output queue
// threaded through it as intrusive doubly linked lists, and the per-port
// tallies. A queue owns no storage of its own — a push or a removal
// rewrites links in records that already exist — and IDs recycle through
// a free list, so at steady state (pending count fluctuating below its
// high-water mark) the store performs zero heap allocations per round:
// slot IDs come off the arena free list, and every per-round scratch
// slice is length-reset, never reallocated. Shards own none of it (see
// shard.go).
//
// The arena's columns are grouped by access affinity, not one array per
// scalar field: a feasibility or age check (Take, drainVOQ, the age-aware
// policies' head ordering) and a step along a VOQ read exactly one 40-byte
// hot record, and the cold sequence number stays out of the pick-path
// cache footprint. A pending flow costs 48 bytes across the two columns.

// flowRec is the hot per-flow record: release round (the age-aware
// policies order VOQ heads by it every round), admission-order links, VOQ
// links, demand, ports, and the live/taken state bits — everything the
// pick and depart paths read or write, in 40 bytes. A policy walking a VOQ
// reads each flow's record for Taken and Demand anyway, and the successor
// link sits in that same record, so one record read serves both the
// feasibility check and the step to the next flow. Ports are int16 (the
// switch is capped at 1<<15 ports a side at construction); the VOQ index
// is not cached — it is in*NumOut + out.
type flowRec struct {
	rel          int64 // release round
	prev, next   int32 // admission-order links; noID terminates
	vprev, vnext int32 // VOQ links, oldest to youngest; noID terminates
	dem          int32
	in, out      int16
	state        uint16
}

// arena state bits.
const (
	stLive  = 1 << iota // resident ID
	stTaken             // selected this round
)

// arena holds the pending flows as two parallel columns indexed by flow
// ID — the 40-byte hot record and the 8-byte cold admission sequence
// number (read when OnSchedule reports a pick, by View.Each, and by a
// checkpoint capture; no pick, head update or departure reads it). There
// is no per-flow heap object: a flow is a row across the columns,
// reconstructed into a switchnet.Flow only at the API boundary (View.Flow,
// verification buffering, OnSchedule).
type arena struct {
	rec []flowRec
	seq []int64
	// freed is the ID free list (LIFO, so hot IDs recycle first).
	freed []int32
}

// alloc returns a free ID, growing every column in step only when the
// free list is empty (i.e. the pending set reaches a new high-water mark).
//
//flowsched:hotpath
func (a *arena) alloc() int32 {
	if n := len(a.freed); n > 0 {
		id := a.freed[n-1]
		a.freed = a.freed[:n-1]
		return id
	}
	a.rec = append(a.rec, flowRec{prev: noID, next: noID, vprev: noID, vnext: noID}) //flowsched:allow alloc: arena rows grow to the live-flow high-water mark, then recycle through freed
	a.seq = append(a.seq, 0)                                                         //flowsched:allow alloc: grows in lockstep with rec to the same high-water mark
	return int32(len(a.rec) - 1)
}

// free recycles id onto the free list.
//
//flowsched:hotpath
func (a *arena) free(id int32) {
	a.rec[id].state = 0
	a.freed = append(a.freed, id) //flowsched:allow alloc: free list grows to the arena high-water mark, then stabilizes
}

// live and taken test the state bits of id.
func (a *arena) live(id int32) bool  { return a.rec[id].state&stLive != 0 }
func (a *arena) taken(id int32) bool { return a.rec[id].state&stTaken != 0 }

// flow reconstructs the switchnet.Flow stored at id.
func (a *arena) flow(id int32) switchnet.Flow {
	r := &a.rec[id]
	return switchnet.Flow{
		In:      int(r.in),
		Out:     int(r.out),
		Demand:  int(r.dem),
		Release: int(r.rel),
	}
}

// voqState is one VOQ: the ends of its list and its length.
type voqState struct {
	head, tail int32 // oldest and youngest IDs; noID when empty
	live       int32
}

// voqHead is the per-VOQ head-age record: the release round and demand of
// the queue's oldest flow, mirrored out of the arena's hot record whenever
// the head changes (first push into an empty queue, head departure —
// appends behind a non-empty head cannot change it). The age-aware
// policies order and filter VOQ heads every round; reading this dense
// vi-indexed array of 16-byte records costs one sequential cache line per
// four VOQs instead of chasing queue state -> flow record for every head.
// Entries are only meaningful while the VOQ is non-empty, and during a
// pick they describe the queue as of the last retirement — a head the
// same pick already took still owns the entry until it departs (policies
// see takes via View.Taken).
type voqHead struct {
	rel int64
	dem int32
	_   int32
}

// initStore sizes the pending store to an mIn x mOut switch, empty.
func (rt *Runtime) initStore(mIn, mOut int) {
	rt.head, rt.tail = noID, noID
	rt.mOut, rt.nw = mOut, (mOut+63)/64
	rt.vqs = make([]voqState, mIn*mOut)
	for i := range rt.vqs {
		rt.vqs[i] = voqState{head: noID, tail: noID}
	}
	rt.heads = make([]voqHead, mIn*mOut)
	rt.actBits = make([]uint64, mIn*rt.nw)
	rt.queueIn = make([]int, mIn)
	rt.queueOut = make([]int, mOut)
	rt.loadIn, rt.loadOut = make([]int, mIn), make([]int, mOut)
	rt.activeInPos = make([]int32, mIn)
	for i := range rt.activeInPos {
		rt.activeInPos[i] = noID
	}
}

// shardOf returns the shard owning input in.
func (rt *Runtime) shardOf(in int) *shard {
	if rt.nshards == 1 {
		return rt.shards[0]
	}
	return rt.shards[in%rt.nshards]
}

// admitFlow threads one admitted flow, under admission sequence number
// seq, into the pending store: the admission-order list, its VOQ, the
// port tallies, and its input's shard.
//
//flowsched:hotpath
func (rt *Runtime) admitFlow(f switchnet.Flow, seq int64) {
	a := &rt.ar
	id := a.alloc()
	a.rec[id] = flowRec{
		rel: int64(f.Release), prev: rt.tail, next: noID,
		dem: int32(f.Demand), in: int16(f.In), out: int16(f.Out), state: stLive,
	}
	a.seq[id] = seq
	if rt.tail != noID {
		a.rec[rt.tail].next = id
	} else {
		rt.head = id
	}
	rt.tail = id

	vi := f.In*rt.mOut + f.Out
	if rt.vqs[vi].live == 0 {
		rt.actBits[f.In*rt.nw+f.Out>>6] |= 1 << uint(f.Out&63)
	}
	rt.voqPush(vi, id)

	sh := rt.shardOf(f.In)
	if rt.queueIn[f.In] == 0 {
		rt.activeInPos[f.In] = int32(len(sh.activeIn))
		sh.activeIn = append(sh.activeIn, int32(f.In)) //flowsched:allow alloc: active-input list grows to the owned-port count
	}
	rt.queueIn[f.In]++
	rt.queueOut[f.Out]++
	sh.count++
}

// depart unthreads pending flow id, whose input belongs to sh, from every
// pending structure.
//
//flowsched:hotpath
func (rt *Runtime) depart(sh *shard, id int32) {
	a := &rt.ar
	r := &a.rec[id]
	in, out := int(r.in), int(r.out)

	if r.prev != noID {
		a.rec[r.prev].next = r.next
	} else {
		rt.head = r.next
	}
	if r.next != noID {
		a.rec[r.next].prev = r.prev
	} else {
		rt.tail = r.prev
	}

	if rt.voqRemove(in*rt.mOut+out, id) {
		rt.actBits[in*rt.nw+out>>6] &^= 1 << uint(out&63)
	}

	rt.queueIn[in]--
	rt.queueOut[out]--
	if rt.queueIn[in] == 0 {
		pos := rt.activeInPos[in]
		last := len(sh.activeIn) - 1
		moved := sh.activeIn[last]
		sh.activeIn[pos] = moved
		sh.activeIn = sh.activeIn[:last]
		rt.activeInPos[moved] = pos
		rt.activeInPos[in] = noID
	}
	sh.count--
	a.free(id)
}

// expire unthreads pending flows that can no longer meet the deadline and
// returns how many: completing a flow this round gives it response
// round+1-release, so any flow with round+1-release > Deadline is past
// saving. The admission list follows source order and releases are
// non-decreasing along it, so walking from the head and stopping at the
// first survivor sees every expirable flow, whatever its shard. Runs
// after the previous round's apply (no retired flow is still threaded)
// and before any Pick (an expired flow is never scheduled), which keeps
// the schedule verifier-clean and deterministic.
//
//flowsched:hotpath
func (rt *Runtime) expire() int {
	rec := rt.ar.rec
	horizon := int64(rt.round + 1 - rt.cfg.Deadline)
	n := 0
	for rt.head != noID && rec[rt.head].rel < horizon {
		rt.depart(rt.shardOf(int(rec[rt.head].in)), rt.head)
		n++
	}
	return n
}

// voqPush links id at VOQ vi's tail.
//
//flowsched:hotpath
func (rt *Runtime) voqPush(vi int, id int32) {
	q := &rt.vqs[vi]
	r := &rt.ar.rec[id]
	r.vprev, r.vnext = q.tail, noID
	if q.tail != noID {
		rt.ar.rec[q.tail].vnext = id
	} else {
		// The first flow of an empty queue is its head.
		q.head = id
		rt.heads[vi] = voqHead{rel: r.rel, dem: r.dem}
	}
	q.tail = id
	q.live++
}

// voqRemove unlinks id from VOQ vi, wherever it sits, and reports whether
// the VOQ drained. Only a head removal refreshes the head-age record.
//
//flowsched:hotpath
func (rt *Runtime) voqRemove(vi int, id int32) (drained bool) {
	q := &rt.vqs[vi]
	rec := rt.ar.rec
	r := &rec[id]
	if r.vnext != noID {
		rec[r.vnext].vprev = r.vprev
	} else {
		q.tail = r.vprev
	}
	if r.vprev != noID {
		rec[r.vprev].vnext = r.vnext
	} else {
		q.head = r.vnext
		if h := q.head; h != noID {
			rt.heads[vi] = voqHead{rel: rec[h].rel, dem: rec[h].dem}
		}
	}
	q.live--
	return q.live == 0
}
