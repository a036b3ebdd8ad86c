package stream

import (
	"math"
	"math/bits"

	"flowsched/internal/switchnet"
)

// OldestFirst is the age-aware native policy: every round it serves VOQ
// heads globally oldest-first — the streaming analogue of the paper's
// MinRTime heuristic (greedy age-ordered maximal selection over the
// pending graph) at incremental cost. Heads are ordered by release
// round; heads released in the same round tie-break in port order
// (input, then output), and strict VOQ FIFO settles the rest, so the
// service order is the total order (release, input, output, admission
// seq) and the schedule is a pure function of the stream.
//
// Every pass builds its candidate set by sweeping the head-age records:
// inputs with capacity left in ascending port order (a reconcile pass
// therefore visits only what the propose phase left unsaturated), each
// input's active VOQs in ascending port order off the bitmap words, so
// candidates are emitted pre-sorted by (input, output) and the record
// reads are plain sequential array traffic. The port-order tie-break is
// what makes ordering sort-free: one stable counting pass over the
// release span — head ages are small integers around the current round —
// yields the exact global order in O(inputs + active VOQs + span), with
// no comparison sort and no log factor. (A release span degenerately
// wider than the candidate count — idle-jump shaped streams — falls back
// to one comparison sort.) The scan then serves candidates in order: an
// entry whose ports lack capacity is skipped in O(1) array reads, and a
// served head's successor re-enters through a small auxiliary heap (at
// most one entry per flow served), keeping the merged order exact. The
// scan exits as soon as the shard's input capacity is exhausted.
//
// Within a VOQ the policy is strict FIFO: a head whose demand does not
// fit the remaining port capacity blocks its queue for the round (the
// queue is abandoned, not probed deeper), so no flow is ever overtaken
// by a younger flow on the same port pair. On unit-demand workloads the
// abandonment is exact — every flow behind a blocked head shares its
// ports and demand, so a first-fit pass over all pending flows in the
// same (release, input, output) order would reject them identically, and
// the round's selection matches that bridged MinRTime-style policy flow
// for flow (property tested). With general demands abandonment is the
// head-of-line trade-off: a smaller younger flow that a full first-fit
// pass would slip past a blocked head stays queued here.
//
// All scratch (entry, bucket, and heap slices) is length-reset and grows
// only to its high-water mark, so steady-state rounds allocate nothing.
//
// OldestFirst is Shardable: each shard serves its own inputs' heads
// oldest-first against its carved budgets, and the reconcile pass visits
// shards by oldest pending release (see Runtime.reconcile), each again
// serving its own heads oldest-first against the shared leftover pool.
// That is not the global age-greedy selection — the equivalence with the
// bridged MinRTime-style policy above is a one-shard property (see the
// package docs, "Sharding caveat"). The head-age records during the
// reconcile pass may still carry a propose-pass pick (they update at
// retirement), in which case the entry stands for the taken head's
// oldest untaken successor — deterministic, just ordered and prechecked
// by the record rather than the successor's own key.
type OldestFirst struct {
	ent []ofEntry // sweep scratch: one entry per candidate VOQ
	ord []ofEntry // the entries in global order
	cnt []int32   // calendar buckets: per-release counts, then offsets
	h   []ofEntry // auxiliary min-heap of served heads' successors
	// inFree/outFree mirror the ports' remaining capacity during the
	// scan (seeded from the View, decremented alongside every take), so
	// a skipped entry costs local array reads, not View calls.
	inFree, outFree []int32
}

// Reset implements Resetter: it sizes the capacity mirrors to the switch
// so Pick never allocates.
func (p *OldestFirst) Reset(sw switchnet.Switch) {
	p.inFree = make([]int32, sw.NumIn())
	p.outFree = make([]int32, sw.NumOut())
}

// ofEntry is one candidate: an active VOQ identified by its port pair,
// keyed and prechecked by its head-age record, packed into 16 bytes (a
// round's candidate set streams through cache three times — sweep,
// scatter, scan — so entry size is bandwidth). Entries order by
// (rel, in, out); at most one candidate per VOQ is live at a time —
// the sweep emits one entry per queue, and a successor enters only
// after its predecessor was consumed — so
// the key is unique, the order total, and the scan sequence
// deterministic.
type ofEntry struct {
	rel     int64
	dem     int32
	in, out int16
}

func (e ofEntry) before(o ofEntry) bool {
	if e.rel != o.rel {
		return e.rel < o.rel
	}
	if e.in != o.in {
		return e.in < o.in
	}
	return e.out < o.out
}

// Name implements Policy.
func (*OldestFirst) Name() string { return "OldestFirst" }

// NewShard implements Shardable: all state is per-Pick scratch, so a
// fresh instance per shard shares nothing.
func (*OldestFirst) NewShard() Policy { return &OldestFirst{} }

// reconcileOldestShardFirst implements oldestShardFirst.
func (*OldestFirst) reconcileOldestShardFirst() {}

// Pick implements Policy.
//
//flowsched:hotpath
func (p *OldestFirst) Pick(v *View) {
	sw := v.Switch()
	mIn, mOut := sw.NumIn(), sw.NumOut()
	p.h = p.h[:0]
	for j := 0; j < mOut; j++ {
		p.outFree[j] = int32(v.OutputFree(j))
	}
	// Seed the input capacity mirror; every candidate lives on an active
	// input.
	sumFree := 0
	for a := 0; a < v.NumActiveInputs(); a++ {
		in := v.ActiveInput(a)
		free := v.InputFree(in)
		p.inFree[in] = int32(free)
		sumFree += free
	}
	if sumFree == 0 {
		return
	}
	p.ent = p.ent[:0]
	minRel, maxRel := int64(math.MaxInt64), int64(math.MinInt64)
	// Sweep inputs in ascending port order and each input's active VOQs
	// in ascending port order off the bitmap words, so candidates are
	// emitted pre-sorted by (input, output) and the head-age records are
	// read in ascending vi order — plain sequential array traffic, no
	// per-VOQ calls.
	for in := 0; in < mIn; in++ {
		if v.QueueIn(in) == 0 || p.inFree[in] <= 0 {
			continue
		}
		row := v.headRow(in)
		for wi, w := range v.voqWords(in) {
			for w != 0 {
				out := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				h := &row[out]
				if h.rel < minRel {
					minRel = h.rel
				}
				if h.rel > maxRel {
					maxRel = h.rel
				}
				p.ent = append(p.ent, ofEntry{ //flowsched:allow alloc: entry scratch is length-reset per round and grows to the pending high-water mark
					rel: h.rel, dem: h.dem,
					in: int16(in), out: int16(out),
				})
			}
		}
	}
	if len(p.ent) == 0 {
		return
	}
	p.order(minRel, maxRel)

	i := 0
	for (i < len(p.ord) || len(p.h) > 0) && sumFree > 0 {
		var e ofEntry
		if i < len(p.ord) && (len(p.h) == 0 || p.ord[i].before(p.h[0])) {
			e = p.ord[i]
			i++
		} else {
			e = p.pop()
		}
		d := p.take(v, e)
		if d == 0 {
			continue
		}
		sumFree -= int(d)
	}
}

// take serves entry e if its head still fits both remaining capacities:
// it walks past already-taken flows to the queue's current head, takes
// it, updates the capacity mirrors, and offers the served head's
// successor to the heap. Returns the served demand, 0 when nothing was
// taken — a blocked head blocks its whole queue for the round (strict
// FIFO; two local array reads, the queue itself is never touched).
func (p *OldestFirst) take(v *View, e ofEntry) int32 {
	free := p.inFree[e.in]
	if free <= 0 || e.dem > free || p.outFree[e.out] < e.dem {
		return 0
	}
	in := int(e.in)
	id := v.VOQHead(in, int(e.out))
	for id != NoID && v.Taken(id) {
		id = v.VOQNext(id)
	}
	if id == NoID || !v.Take(id) {
		return 0 // reconcile-pass successor differs from the record
	}
	d := int32(v.Demand(id))
	p.inFree[e.in] -= d
	p.outFree[e.out] -= d
	if p.inFree[e.in] > 0 {
		// A successor can only serve while its input has capacity left;
		// on unit-capacity inputs this never pushes, and the heap costs
		// nothing.
		p.push(v, v.VOQNext(id))
	}
	return d
}

// order arranges p.ent into p.ord in global (rel, in, out) order. The
// sweep emitted entries (in, out)-sorted, so one stable counting pass by
// release — O(active VOQs + span) — finishes the job without comparing
// anything. A release span far wider than the entry count (idle-jump
// shaped streams) falls back to one comparison sort of everything.
func (p *OldestFirst) order(minRel, maxRel int64) {
	span := maxRel - minRel + 1
	if span > int64(4*len(p.ent)+64) {
		p.ord = append(p.ord[:0], p.ent...) //flowsched:allow alloc: ord scratch reuses capacity, growing to the ent high-water mark
		sortEntries(p.ord)
		return
	}
	n := int(span)
	if cap(p.cnt) < n {
		p.cnt = make([]int32, n) //flowsched:allow alloc: counting-sort scratch regrows only when the release span exceeds its high-water mark
	}
	p.cnt = p.cnt[:n]
	for i := range p.cnt {
		p.cnt[i] = 0
	}
	for i := range p.ent {
		p.cnt[p.ent[i].rel-minRel]++
	}
	sum := int32(0)
	for i, c := range p.cnt {
		p.cnt[i] = sum
		sum += c
	}
	if cap(p.ord) < len(p.ent) {
		p.ord = make([]ofEntry, len(p.ent)) //flowsched:allow alloc: ord regrows only past its high-water mark
	}
	p.ord = p.ord[:len(p.ent)]
	for i := range p.ent {
		b := p.ent[i].rel - minRel
		p.ord[p.cnt[b]] = p.ent[i]
		p.cnt[b]++
	}
}

// sortEntries sorts by the full entry order without allocating:
// insertion sort for short runs, quicksort (middle pivot) above. Keys
// are unique, so the order — and with it the schedule — is
// deterministic.
func sortEntries(s []ofEntry) {
	for len(s) > 12 {
		pivot := s[len(s)/2]
		lo, hi := 0, len(s)-1
		for lo <= hi {
			for s[lo].before(pivot) {
				lo++
			}
			for pivot.before(s[hi]) {
				hi--
			}
			if lo <= hi {
				s[lo], s[hi] = s[hi], s[lo]
				lo++
				hi--
			}
		}
		// Recurse into the smaller side, loop on the larger.
		if hi < len(s)-lo {
			sortEntries(s[:hi+1])
			s = s[lo:]
		} else {
			sortEntries(s[lo:])
			s = s[:hi+1]
		}
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].before(s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// push offers the first untaken flow at or after id in its VOQ to the
// successor heap, keyed by its own record — a served head's successor
// sorts strictly after every entry scanned so far (same ports, same or
// later release, later seq), so the merged scan order stays globally
// sorted.
func (p *OldestFirst) push(v *View, id ID) {
	for id != NoID && v.Taken(id) {
		id = v.VOQNext(id)
	}
	if id == NoID {
		return
	}
	f := v.Flow(id)
	p.heapPush(ofEntry{
		rel: v.Release(id), dem: int32(f.Demand),
		in: int16(f.In), out: int16(f.Out),
	})
}

// heapPush sifts e up into the min-heap.
func (p *OldestFirst) heapPush(e ofEntry) {
	p.h = append(p.h, e) //flowsched:allow alloc: heap scratch is length-reset per round and grows to the pending high-water mark
	i := len(p.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !p.h[i].before(p.h[parent]) {
			break
		}
		p.h[i], p.h[parent] = p.h[parent], p.h[i]
		i = parent
	}
}

// pop removes and returns the successor heap's minimum entry.
func (p *OldestFirst) pop() ofEntry {
	e := p.h[0]
	last := len(p.h) - 1
	p.h[0] = p.h[last]
	p.h = p.h[:last]
	n := last
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			return e
		}
		min := l
		if r := l + 1; r < n && p.h[r].before(p.h[l]) {
			min = r
		}
		if !p.h[min].before(p.h[i]) {
			return e
		}
		p.h[i], p.h[min] = p.h[min], p.h[i]
		i = min
	}
}
