package stream

import "flowsched/internal/switchnet"

// The pending-set storage of a shard: a struct-of-arrays arena addressed
// by flow ID, with every virtual output queue threaded through it as an
// intrusive doubly linked list. A queue owns no storage of its own — a
// push or a removal rewrites links in records that already exist — and
// IDs recycle through a free list, so a shard at steady state (pending
// count fluctuating below its high-water mark) performs zero heap
// allocations per round: slot IDs come off the arena free list, and every
// per-round scratch slice is length-reset, never reallocated.
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
// is not cached — it is two array reads away via shard.voq(in, out).
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

// arena holds one shard's pending flows as two parallel columns indexed
// by flow ID — the 40-byte hot record and the 8-byte cold admission
// sequence number (read when OnSchedule reports a pick, by View.Each, and
// when a checkpoint merges the shards' admission orders; no pick, head
// update or departure reads it). There is no
// per-flow heap object: a flow is a row across the columns, reconstructed
// into a switchnet.Flow only at the API boundary (View.Flow, verification
// buffering, OnSchedule).
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

// len reports the arena's column length (IDs ever allocated).
func (a *arena) len() int { return len(a.rec) }

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
// pick pass they describe the queue as of the last retirement — a head
// taken earlier in the same round still owns the entry until it departs
// (policies see takes via View.Taken).
type voqHead struct {
	rel int64
	dem int32
	_   int32
}

// voqPush links id at VOQ vi's tail.
//
//flowsched:hotpath
func (sh *shard) voqPush(vi int, id int32) {
	q := &sh.vqs[vi]
	r := &sh.ar.rec[id]
	r.vprev, r.vnext = q.tail, noID
	if q.tail != noID {
		sh.ar.rec[q.tail].vnext = id
	} else {
		// The first flow of an empty queue is its head.
		q.head = id
		sh.heads[vi] = voqHead{rel: r.rel, dem: r.dem}
	}
	q.tail = id
	q.live++
}

// voqRemove unlinks id from VOQ vi, wherever it sits, and reports whether
// the VOQ drained. Only a head removal refreshes the head-age record.
//
//flowsched:hotpath
func (sh *shard) voqRemove(vi int, id int32) (drained bool) {
	q := &sh.vqs[vi]
	rec := sh.ar.rec
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
			sh.heads[vi] = voqHead{rel: rec[h].rel, dem: rec[h].dem}
		}
	}
	q.live--
	return q.live == 0
}

// voqFirst returns VOQ vi's oldest ID, or noID if it is empty.
func (sh *shard) voqFirst(vi int) int32 { return sh.vqs[vi].head }

// voqNext returns the ID after id in its VOQ (toward younger flows), or
// noID at the tail.
func (sh *shard) voqNext(id int32) int32 { return sh.ar.rec[id].vnext }
