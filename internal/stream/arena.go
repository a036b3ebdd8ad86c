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
// slice is length-reset, never reallocated.
//
// The arena's columns are grouped by access affinity, not one array per
// scalar field: a feasibility or age check (Take, drainVOQ, a head-record
// refresh) and a step along a VOQ read exactly one 32-byte hot record —
// two to a cache line, none straddling two — and the cold sequence
// number stays out of the pick-path cache footprint. A pending flow costs
// 40 bytes across the two columns, plus its 4-byte slot in the free list.

// flowRec is the hot per-flow record: release round, admission-order
// links, VOQ links, demand and ports, with the live and taken state bits
// riding the ports' top bits — everything the pick and depart paths read
// or write, in 32 bytes. A policy walking a VOQ reads each flow's record
// for Taken and Demand anyway, and the successor link sits in that same
// record, so one record read serves both the feasibility check and the
// step to the next flow. The switch is capped at 1<<15 ports a side at
// construction, so a port number fits the low 15 bits of its uint16 word
// and bit 15 is free: stLive on in, stTaken on out. Read the ports
// through inPort and outPort. The VOQ index is not cached — it is
// in*NumOut + out.
type flowRec struct {
	rel          int64 // release round
	prev, next   int32 // admission-order links; noID terminates
	vprev, vnext int32 // VOQ links, oldest to youngest; noID terminates
	dem          int32
	in, out      uint16 // port | state bit
}

// arena state bits, each on the top bit of one port word.
const (
	portMask = 1<<15 - 1
	stLive   = 1 << 15 // on in: resident ID
	stTaken  = 1 << 15 // on out: selected this round
)

// inPort and outPort return the record's ports without the state bits.
func (r *flowRec) inPort() int  { return int(r.in & portMask) }
func (r *flowRec) outPort() int { return int(r.out & portMask) }

// arena holds the pending flows as two parallel columns indexed by flow
// ID — the 32-byte hot record and the 8-byte cold admission sequence
// number (read when OnSchedule reports a pick, by View.Each, and by a
// checkpoint capture; no pick, head refresh or departure reads it). There
// is no per-flow heap object: a flow is a row across the columns,
// reconstructed into a switchnet.Flow only at the API boundary (View.Each,
// the round's check, OnSchedule).
type arena struct {
	rec []flowRec
	seq []int64
	// freed is the ID free list (LIFO, so hot IDs recycle first). Its
	// capacity is rec's, so a free never reallocates it.
	freed []int32
}

// minArena is the row count of an arena's first allocation.
const minArena = 64

// alloc returns a free ID, growing every column in step only when the
// free list is empty and the rows are full (i.e. the pending set reaches
// a new high-water mark past the columns' capacity). The caller writes
// the whole record.
//
//flowsched:hotpath
func (a *arena) alloc() int32 {
	if n := len(a.freed); n > 0 {
		id := a.freed[n-1]
		a.freed = a.freed[:n-1]
		return id
	}
	n := len(a.rec)
	if n == cap(a.rec) {
		a.grow()
	}
	a.rec = a.rec[:n+1]
	a.seq = a.seq[:n+1]
	return int32(n)
}

// grow doubles the capacity of every column, so a ramp to n resident
// flows copies and allocates O(n) bytes in all: about twice the final
// arena, where append's 1.25x rule for large slices allocated five times
// it. The record column's sizes stay powers of two from 2 KB, which the
// allocator places on boundaries of their size (or of a page), so no
// record straddles a cache line.
//
//flowsched:allow alloc: arena columns double at each new high-water mark, then recycle through freed slots (TestArenaGrowthDoubles)
func (a *arena) grow() {
	c := max(2*cap(a.rec), minArena)
	rec := make([]flowRec, len(a.rec), c)
	copy(rec, a.rec)
	seq := make([]int64, len(a.seq), c)
	copy(seq, a.seq)
	freed := make([]int32, len(a.freed), c)
	copy(freed, a.freed)
	a.rec, a.seq, a.freed = rec, seq, freed
}

// free recycles id onto the free list, clearing its state bits.
//
//flowsched:hotpath
func (a *arena) free(id int32) {
	r := &a.rec[id]
	r.in &^= stLive
	r.out &^= stTaken
	appendReserved(&a.freed, id)
}

// appendReserved appends x to *s within the capacity reserved for it
// where *s was built; it never allocates, and a list that outgrows its
// reserved bound panics instead of growing.
func appendReserved(s *[]int32, x int32) {
	n := len(*s)
	*s = (*s)[:n+1]
	(*s)[n] = x
}

// live and taken test the state bits of id.
func (a *arena) live(id int32) bool  { return a.rec[id].in&stLive != 0 }
func (a *arena) taken(id int32) bool { return a.rec[id].out&stTaken != 0 }

// flow reconstructs the switchnet.Flow stored at id.
func (a *arena) flow(id int32) switchnet.Flow {
	r := &a.rec[id]
	return switchnet.Flow{
		In:      r.inPort(),
		Out:     r.outPort(),
		Demand:  int(r.dem),
		Release: int(r.rel),
	}
}

// voqState is one VOQ: the ends of its list.
type voqState struct {
	head, tail int32 // oldest and youngest IDs; noID when empty
}

// voqHead is the per-VOQ head-age record: the release round and demand of
// the queue's oldest flow, copied out of the arena's hot record when it is
// read, not when the head changes. A head change (a push into an empty
// queue, a head departure — appends behind a non-empty head cannot
// change it) only sets the VOQ's bit in its input's stale bitmap, and
// View.headRow refreshes the stale entries of an input before handing
// out its row. So a policy that never reads head records (RoundRobin,
// StreamFIFO, the paper's heuristics) never pays for them, and the
// age-aware policies copy each changed head once per pick. They filter
// VOQ heads by age and demand every round; reading this dense
// vi-indexed array of 16-byte records costs one sequential cache line per
// four VOQs instead of chasing queue state -> flow record for every head.
// An entry is only meaningful while the VOQ is non-empty and only through
// headRow (OldestFirst, whose list keys copy these records, also reads
// its rows around its own headRow calls). Nothing departs during a pick,
// so a row describes the queue as of the last retirement — a head the
// same pick already took still owns the entry until it departs
// (policies see takes via View.Taken).
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
	rt.stale = make([]uint64, mIn*rt.nw)
	rt.queueIn = make([]int, mIn)
	rt.queueOut = make([]int, mOut)
	rt.loadIn, rt.loadOut = make([]int, mIn), make([]int, mOut)
	rt.touchIn, rt.touchOut = make([]int32, 0, mIn), make([]int32, 0, mOut)
	rt.activeInPos = make([]int32, mIn)
	for i := range rt.activeInPos {
		rt.activeInPos[i] = noID
	}
	K := rt.nshards
	rt.activeIn = make([][]int32, K)
	for k := range K {
		rt.activeIn[k] = make([]int32, 0, (mIn-k+K-1)/K)
	}
}

// admitFlow threads one admitted flow, under admission sequence number
// seq, into the pending store: the admission-order list, its VOQ, the
// port tallies, the pending count, and its input's scope's active-input
// list. It and depart are the count's only writers.
//
//flowsched:hotpath
func (rt *Runtime) admitFlow(f *switchnet.Flow, seq int64) {
	a := &rt.ar
	id := a.alloc()
	a.rec[id] = flowRec{
		rel: int64(f.Release), prev: rt.tail, next: noID,
		dem: int32(f.Demand), in: uint16(f.In) | stLive, out: uint16(f.Out),
	}
	a.seq[id] = seq
	if rt.tail != noID {
		a.rec[rt.tail].next = id
	} else {
		rt.head = id
	}
	rt.tail = id

	rt.voqPush(f.In, f.Out, id)

	if rt.queueIn[f.In] == 0 {
		act := &rt.activeIn[f.In%rt.nshards]
		rt.activeInPos[f.In] = int32(len(*act))
		appendReserved(act, int32(f.In))
	}
	rt.queueIn[f.In]++
	rt.queueOut[f.Out]++
	rt.count++
}

// depart unthreads pending flow id from every pending structure.
//
//flowsched:hotpath
func (rt *Runtime) depart(id int32) {
	a := &rt.ar
	r := &a.rec[id]
	in, out := r.inPort(), r.outPort()

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

	rt.voqRemove(in, out, id)

	rt.queueIn[in]--
	rt.queueOut[out]--
	rt.count--
	if rt.queueIn[in] == 0 {
		act := &rt.activeIn[in%rt.nshards]
		pos, last := rt.activeInPos[in], len(*act)-1
		moved := (*act)[last]
		(*act)[pos] = moved
		*act = (*act)[:last]
		rt.activeInPos[moved] = pos
		rt.activeInPos[in] = noID
	}
	a.free(id)
}

// voqPush links id at the tail of VOQ (in, out). A push into an empty
// queue makes id its head: the queue turns active and its head-age record
// stale.
//
//flowsched:hotpath
func (rt *Runtime) voqPush(in, out int, id int32) {
	q := &rt.vqs[in*rt.mOut+out]
	r := &rt.ar.rec[id]
	r.vprev, r.vnext = q.tail, noID
	if q.tail != noID {
		rt.ar.rec[q.tail].vnext = id
	} else {
		q.head = id
		w, bit := rt.voqBit(in, out)
		rt.actBits[w] |= bit
		rt.stale[w] |= bit
	}
	q.tail = id
}

// voqRemove unlinks id from VOQ (in, out), wherever it sits. A head
// removal only marks the head-age record stale (headRow copies the new
// head's fields when a policy reads the row); the last removal turns the
// queue inactive.
//
//flowsched:hotpath
func (rt *Runtime) voqRemove(in, out int, id int32) {
	q := &rt.vqs[in*rt.mOut+out]
	rec := rt.ar.rec
	r := &rec[id]
	w, bit := rt.voqBit(in, out)
	if r.vnext != noID {
		rec[r.vnext].vprev = r.vprev
	} else {
		q.tail = r.vprev
	}
	if r.vprev != noID {
		rec[r.vprev].vnext = r.vnext
	} else {
		q.head = r.vnext
		rt.stale[w] |= bit
	}
	if q.head == noID {
		rt.actBits[w] &^= bit
	}
}

// voqBit locates VOQ (in, out) in the per-input bitmaps (actBits, stale):
// its word index and its bit in that word.
func (rt *Runtime) voqBit(in, out int) (int, uint64) {
	return in*rt.nw + out>>6, 1 << uint(out&63)
}
