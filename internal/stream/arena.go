package stream

import "flowsched/internal/switchnet"

// The pending-set storage of a shard: a struct-of-arrays arena addressed
// by flow ID, plus pooled ring-buffer blocks holding the virtual output
// queues. Both structures recycle through free lists, so a shard at
// steady state — pending count fluctuating below its high-water mark —
// performs zero heap allocations per round: slot IDs come off the arena
// free list, VOQ storage comes off the block pool, and every per-round
// scratch slice is length-reset, never reallocated.
//
// The arena's columns are grouped by access affinity, not one array per
// scalar field: a feasibility or age check (Take, serveVOQ, the age-aware
// policies' head ordering) reads exactly one 32-byte hot record, an
// admission-order unlink touches only the packed link pairs, and the cold
// sequence number stays out of the pick-path cache footprint. A pending
// flow costs 40 bytes across the columns versus a 56-byte AoS slot, and
// the field a hot path does not need is never pulled into cache.

// flowRec is the hot per-flow record: release round (the age-aware
// policies order VOQ heads by it every round, so it rides in the hot
// line), admission-order links, the flow's position inside its VOQ block
// chain, demand, ports, and the live/taken state bits — everything the
// pick and depart paths read or write, packed into exactly 32 bytes so
// two flows share a cache line and a feasibility-plus-age check
// (Taken+Demand+Release+Take) costs a single line per flow. Ports are
// int16 (the switch is capped at 1<<15 ports a side at construction);
// the VOQ index is no longer cached — it is two array reads away via
// shard.voq(in, out), which is cheaper than the four bytes it occupied.
type flowRec struct {
	rel        int64 // release round
	prev, next int32 // admission-order links; noID terminates
	blk        int32 // VOQ ring-block position (see blockPool)
	dem        int32
	in, out    int16
	off        int16 // offset inside blk; < blockLen
	state      uint16
}

// arena state bits.
const (
	stLive  = 1 << iota // resident ID
	stTaken             // selected this round
)

// arena holds one shard's pending flows as two parallel columns indexed
// by flow ID — the 32-byte hot record and the 8-byte cold admission
// sequence number (read at retirement, at Bridge materialization, and
// when an age-aware policy breaks a release-round tie). There is no
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
	a.rec = append(a.rec, flowRec{blk: noID, prev: noID, next: noID}) //flowsched:allow alloc: arena rows grow to the live-flow high-water mark, then recycle through freed
	a.seq = append(a.seq, 0)                                          //flowsched:allow alloc: grows in lockstep with rec to the same high-water mark
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

// blockLen is the number of flow IDs per VOQ ring block, sized so a block
// is exactly one 64-byte cache line: sparse VOQs (a handful of pending
// flows) stay one-line dense, deep VOQs chain lines.
const blockLen = 15

// voqBlock is one pooled segment of a VOQ FIFO: a fixed array of flow IDs
// written append-only at the tail, with next chaining toward younger
// blocks. Entries removed out of FIFO order are tombstoned (noID) and
// skipped; a block whose entries are all consumed returns to the pool, and
// a fully drained VOQ releases its whole chain at once.
type voqBlock struct {
	next int32
	ids  [blockLen]int32
}

// blockPool owns a shard's VOQ blocks, recycled through a free list.
type blockPool struct {
	blocks []voqBlock
	free   []int32
}

// voqState is one VOQ's packed cursor record — head/tail block chain
// position plus live and tombstone tallies — sized so a queue probe
// touches one cache line of VOQ state instead of one per parallel array.
type voqState struct {
	head, tail       int32
	headOff, tailOff int16
	live, dead       int32
}

// voqHead is the per-VOQ head-age record: the release round, admission
// sequence number, and demand of the queue's oldest flow, mirrored out of
// the arena whenever the head changes (first push into an empty queue,
// head departure — appends behind a non-empty head cannot change it).
// The age-aware policies order and filter VOQ heads every round; reading
// this dense vi-indexed array costs one sequential cache line per 2-3
// VOQs instead of chasing queue state -> ring block -> flow record for
// every head. Entries are only meaningful while the VOQ is non-empty,
// and during a pick pass they describe the queue as of the last
// retirement — a head taken earlier in the same round still owns the
// entry until it departs (policies see takes via View.Taken).
type voqHead struct {
	rel, seq int64
	dem      int32
	_        int32
}

// get returns a fresh (unlinked) block index.
func (p *blockPool) get() int32 {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		p.blocks[b].next = noID
		return b
	}
	p.blocks = append(p.blocks, voqBlock{next: noID}) //flowsched:allow alloc: block pool grows to the VOQ-block high-water mark, then recycles
	return int32(len(p.blocks) - 1)
}

// put recycles block b.
func (p *blockPool) put(b int32) {
	p.free = append(p.free, b) //flowsched:allow alloc: pool free list grows to the block high-water mark
}

// voqPush appends id to VOQ vi's tail, growing the chain by a pooled
// block when the tail block is full.
//
//flowsched:hotpath
func (sh *shard) voqPush(vi int, id int32) {
	q := &sh.vqs[vi]
	switch {
	case q.tail == noID:
		b := sh.pool.get()
		q.head, q.headOff = b, 0
		q.tail, q.tailOff = b, 0
	case q.tailOff == blockLen:
		b := sh.pool.get()
		sh.pool.blocks[q.tail].next = b
		q.tail, q.tailOff = b, 0
	}
	o := q.tailOff
	sh.pool.blocks[q.tail].ids[o] = id
	r := &sh.ar.rec[id]
	r.blk, r.off = q.tail, o
	q.tailOff = o + 1
	if q.live++; q.live == 1 {
		// First flow of an empty queue is its head; refresh the head-age
		// record. (Compaction re-pushes through here too: its first push
		// is the surviving head, so the record stays exact.)
		sh.heads[vi] = voqHead{rel: r.rel, seq: sh.ar.seq[id], dem: r.dem}
	}
}

// voqRemove unthreads id from VOQ vi and reports whether the VOQ drained.
// A head removal advances the head past any tombstones (recycling spent
// blocks); a mid-queue removal tombstones in place, with compaction once
// tombstones outnumber live entries by more than a block — so the chain
// never holds more than O(live + blockLen) entries and every entry is
// visited O(1) times amortized.
//
//flowsched:hotpath
func (sh *shard) voqRemove(vi int, id int32) (drained bool) {
	q := &sh.vqs[vi]
	r := &sh.ar.rec[id]
	sh.pool.blocks[r.blk].ids[r.off] = noID
	q.live--
	if q.live == 0 {
		for b := q.head; b != noID; {
			nb := sh.pool.blocks[b].next
			sh.pool.put(b)
			b = nb
		}
		*q = voqState{head: noID, tail: noID}
		return true
	}
	q.dead++
	sh.voqAdvanceHead(q)
	if q.dead > q.live+blockLen {
		sh.voqCompact(vi)
	}
	// Refresh the head-age record: a head removal surfaced its successor
	// (a mid-queue removal rewrites the same values — cheaper than
	// distinguishing the cases).
	h := sh.voqFirst(vi)
	hr := &sh.ar.rec[h]
	sh.heads[vi] = voqHead{rel: hr.rel, seq: sh.ar.seq[h], dem: hr.dem}
	return false
}

// voqAdvanceHead moves q's head cursor to its oldest live entry,
// consuming tombstones and recycling blocks the head walks off of. With
// live > 0 the cursor always lands on a live ID, so voqFirst is O(1).
func (sh *shard) voqAdvanceHead(q *voqState) {
	b, o := q.head, q.headOff
	for {
		if b == q.tail && o == q.tailOff {
			break
		}
		if o == blockLen {
			nb := sh.pool.blocks[b].next
			sh.pool.put(b)
			b, o = nb, 0
			continue
		}
		if sh.pool.blocks[b].ids[o] != noID {
			break
		}
		o++
		q.dead--
	}
	q.head, q.headOff = b, o
}

// voqFirst returns VOQ vi's oldest live ID, or noID if it is empty.
func (sh *shard) voqFirst(vi int) int32 {
	q := &sh.vqs[vi]
	if q.live == 0 {
		return noID
	}
	return sh.pool.blocks[q.head].ids[q.headOff]
}

// voqNext returns the next live ID after id in VOQ vi (toward younger
// flows), or noID at the tail. Tombstone runs it skips are bounded by the
// compaction threshold.
func (sh *shard) voqNext(vi int, id int32) int32 {
	q := &sh.vqs[vi]
	r := &sh.ar.rec[id]
	b, o := r.blk, r.off+1
	for {
		if b == q.tail && o >= q.tailOff {
			return noID
		}
		if o == blockLen {
			b, o = sh.pool.blocks[b].next, 0
			continue
		}
		if nid := sh.pool.blocks[b].ids[o]; nid != noID {
			return nid
		}
		o++
	}
}

// voqCompact rewrites VOQ vi's live entries into a fresh chain, dropping
// every tombstone and returning the old blocks to the pool.
func (sh *shard) voqCompact(vi int) {
	q := &sh.vqs[vi]
	sh.cscratch = sh.cscratch[:0]
	for id := sh.voqFirst(vi); id != noID; id = sh.voqNext(vi, id) {
		sh.cscratch = append(sh.cscratch, id) //flowsched:allow alloc: compaction scratch is length-reset and grows to the longest VOQ
	}
	for b := q.head; b != noID; {
		nb := sh.pool.blocks[b].next
		sh.pool.put(b)
		b = nb
	}
	*q = voqState{head: noID, tail: noID}
	for _, id := range sh.cscratch {
		sh.voqPush(vi, id)
	}
}
