package stream

import (
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
// A pick runs in stages over disjoint, ascending release ranges
// [lo, hi). A stage sweeps the head-age records — inputs with capacity
// left in ascending port order, each input's active VOQs in ascending
// port order off the bitmap words, AND-ed with a mask of the outputs
// that still have capacity — and keeps the heads released inside
// its range, so candidates are emitted pre-sorted by (input, output) and
// the record reads are plain sequential array traffic. The port-order
// tie-break is what makes ordering sort-free: one stable counting pass
// over the range — head ages are small integers around the current round
// — yields the exact global order in O(candidates + hi - lo), with no
// comparison sort and no log factor. (A range degenerately wider than
// the candidate count — a few long-waiting heads, a sparse last stage —
// falls back to one comparison sort.) The scan then serves candidates in
// order: an entry whose ports lack capacity is skipped in O(1) array
// reads, and a served head's successor re-enters through a small
// auxiliary heap (at most one entry per flow served), where it waits for
// the stage that covers its release, keeping the merged order exact. The
// pick ends as soon as the scope's input capacity or the output capacity
// it can see is exhausted.
//
// The first stage ends where about ofFactor candidates per unit of free
// input capacity lie below, estimated from a release histogram over every
// ofSample-th live input's rows; every later stage re-sweeps only what
// can still be served, and cuts again only if that is still more than
// twice its own target — usually the second stage finishes on the few
// ports still free. A backlog thin against the target from the start
// (known in O(1) from the queue depths) is one stage over everything
// with no estimate taken: the same loop, run once. At depth a greedy
// pick saturates nearly every port within the oldest few candidates per
// port, which is why this pays: at 150 unit ports with 16k flows
// resident a round reads 10.8k head records and orders and scans 3.7k.
//
// The schedule does not depend on where the cuts fall. The ranges are
// disjoint and ascending, so the stages' concatenation is the one total
// order (release, input, output); and a head that no stage materialises
// sits on a port that was spent when that stage began — the capacity
// mirrors only decrease within a pick, so a single pass over everything
// would have reached it later still and skipped it. Pick therefore stays
// a pure function of the View: no candidate index lives between rounds,
// nothing hooks the VOQ updates, a checkpoint has nothing to carry.
//
// Within a VOQ the policy is strict FIFO: a head whose demand does not
// fit the remaining port capacity blocks its queue for the round (the
// queue is abandoned, not probed deeper), so no flow is ever overtaken
// by a younger flow on the same port pair. On unit-demand workloads the
// abandonment is exact — every flow behind a blocked head shares its
// ports and demand, so a first-fit pass over all pending flows in the
// same (release, input, output) order would reject them identically, and
// the round's selection matches that MinRTime-style first fit flow for
// flow (property tested). With general demands abandonment is the
// head-of-line trade-off: a smaller younger flow that a full first-fit
// pass would slip past a blocked head stays queued here.
//
// All scratch (entry, bucket, and heap slices) is length-reset and grows
// geometrically to its high-water mark, so steady-state rounds allocate
// nothing and a backlog ramping to a new high costs O(log) regrowths.
//
// OldestFirst is Shardable: the instances take turns, oldest first (see
// turns.Pick), and each serves its own inputs' heads oldest-first
// against the output capacity the turns before it left.
// That is not the global age-greedy selection — the equivalence with the
// MinRTime-style first fit above is a one-shard property (see the
// package docs, "Sharding caveat").
type OldestFirst struct {
	ent []ofEntry // sweep scratch: one stage's candidates, (in, out)-sorted
	ord []ofEntry // the stage's candidates in global order
	cnt []int32   // calendar buckets: per-release counts, then offsets
	h   []ofEntry // auxiliary min-heap of served heads' successors
	// inFree/outFree mirror the ports' remaining capacity during the
	// pick (seeded from the View, decremented alongside every take), so
	// a skipped entry costs local array reads, not View calls.
	inFree, outFree []int32
	// live lists, ascending, the inputs that still have queued flows and
	// capacity (settled before every stage); mask has one bit per output
	// with capacity left, laid out like the active-VOQ bitmap words it is
	// AND-ed with.
	live []int16
	mask []uint64
	hist [ofHistLen]int32 // cut estimate: sampled head releases per bucket
	// factor overrides ofFactor when nonzero; only tests set it (to cut
	// after almost every release, after every one when negative, or
	// never).
	factor int
	// stages, ordered and sorts count the stages run, the candidates they
	// ordered and the stages that fell back to the comparison sort, for
	// tests and benchmarks. Nothing reads them to decide.
	stages, ordered, sorts int64
}

const (
	// ofFactor is how many candidates a stage aims to order per unit of
	// free input capacity. Measured flat around its optimum (one pick at
	// 150 unit ports, 16k resident: 64 / 61 / 63 / 63 / 68 / 78 us at
	// 4 / 8 / 12 / 16 / 24 / 32, 108 us uncut), so it is a constant, not
	// a setting.
	ofFactor = 16
	// ofSample is the stride, in live inputs, of the rows the cut
	// estimate reads.
	ofSample = 8
	// ofHistLen is the estimate's resolution: a release range wider than
	// this many rounds is bucketed by a power of two.
	ofHistLen = 256
)

// Reset implements Resetter: it sizes the capacity mirrors, the live
// input list and the free-output mask to the switch so Pick never
// allocates for them.
func (p *OldestFirst) Reset(sw switchnet.Switch) {
	p.inFree = make([]int32, sw.NumIn())
	p.outFree = make([]int32, sw.NumOut())
	p.live = make([]int16, 0, sw.NumIn())
	p.mask = make([]uint64, (sw.NumOut()+63)/64)
}

// ofEntry is one candidate: an active VOQ identified by its port pair,
// keyed and prechecked by its head-age record, packed into 16 bytes (a
// stage's candidate set streams through cache three times — sweep,
// scatter, scan — so entry size is bandwidth). Entries order by
// (rel, in, out); at most one candidate per VOQ is live at a time —
// the sweeps emit one entry per queue over the whole pick, and a
// successor enters only after its predecessor was consumed — so
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
// fresh instance per scope shares nothing.
func (p *OldestFirst) NewShard() Policy { return &OldestFirst{factor: p.factor} }

// Pick implements Policy.
//
//flowsched:hotpath
func (p *OldestFirst) Pick(v *View) {
	sw := v.Switch()
	mIn, mOut := sw.NumIn(), sw.NumOut()
	p.h = p.h[:0]
	clear(p.mask)
	nOut := 0
	for j := 0; j < mOut; j++ {
		free := v.OutputFree(j)
		p.outFree[j] = int32(free)
		if free > 0 {
			p.mask[j>>6] |= 1 << uint(j&63)
			nOut++
		}
	}
	// Every candidate lives on an input with queued flows and capacity.
	p.live = p.live[:0]
	inSum := 0
	for in := 0; in < mIn; in++ {
		if v.QueueIn(in) == 0 {
			continue
		}
		free := v.InputFree(in)
		p.inFree[in] = int32(free)
		if free > 0 {
			p.live = p.live[:len(p.live)+1]
			p.live[len(p.live)-1] = int16(in)
			inSum += free
		}
	}
	factor := p.factor
	if factor == 0 {
		factor = ofFactor
	}
	// Stages cover the disjoint ascending release ranges [lo, hi); every
	// head record lies in [oldestRel, round], so the last one ends past
	// the current round.
	lo, end := v.oldestRel(), int64(v.Round())+1
	for inSum > 0 && nOut > 0 && lo < end {
		// No more candidates are left than flows queued at the live inputs,
		// nor than one per live input and free output. A backlog that thin
		// against the target is ordered whole.
		hi := end
		if target := factor * inSum; min(p.settle(v), len(p.live)*nOut) > 2*target {
			hi = p.cut(v, lo, end, target)
		}
		p.sweep(v, lo, hi)
		p.order(lo, hi)
		p.stages++
		p.ordered += int64(len(p.ord))

		// Serve the stage's candidates in order, merged with the
		// successors whose release it covers; later ones wait in the heap
		// for their stage.
		for i := 0; inSum > 0 && nOut > 0; {
			var e ofEntry
			if i < len(p.ord) && (len(p.h) == 0 || p.ord[i].before(p.h[0])) {
				e = p.ord[i]
				i++
			} else if len(p.h) > 0 && p.h[0].rel < hi {
				e = p.pop()
			} else {
				break
			}
			// A head that does not fit blocks its whole queue for the round
			// (strict FIFO): two local array reads, the queue itself is
			// never touched. Demands are positive, so a spent port fails it.
			if e.dem > p.inFree[e.in] || e.dem > p.outFree[e.out] {
				continue
			}
			inSum -= int(p.take(v, e))
			if p.outFree[e.out] == 0 {
				p.mask[e.out>>6] &^= 1 << uint(e.out&63)
				nOut--
			}
		}
		lo = hi
	}
}

// settle drops from live the inputs a previous stage saturated and
// returns how many flows are queued at the rest.
func (p *OldestFirst) settle(v *View) (depth int) {
	n := 0
	for _, in := range p.live {
		if p.inFree[in] > 0 {
			p.live[n] = in
			n++
			depth += v.QueueIn(int(in))
		}
	}
	p.live = p.live[:n]
	return depth
}

// cut chooses a stage's upper release bound in (lo, end]: it counts, per
// release bucket, the servable heads of every ofSample-th live input and
// returns the first bucket boundary by which the sample, scaled to all
// live inputs, reaches target — end when it never does. Any value would
// give the same schedule; this one only has to be deterministic and
// roughly right.
func (p *OldestFirst) cut(v *View, lo, end int64, target int) int64 {
	shift := uint(0)
	for (end-1-lo)>>shift >= ofHistLen {
		shift++
	}
	hist := p.hist[:(end-1-lo)>>shift+1]
	clear(hist)
	rows := 0
	for k := 0; k < len(p.live); k += ofSample {
		in := int(p.live[k])
		rows++
		row := v.headRow(in)
		for wi, w := range v.voqWords(in) {
			for w &= p.mask[wi]; w != 0; w &= w - 1 {
				if d := row[wi<<6+bits.TrailingZeros64(w)].rel - lo; d >= 0 && d < end-lo {
					hist[d>>shift]++
				}
			}
		}
	}
	need := (target*rows + len(p.live) - 1) / len(p.live)
	sum := 0
	for b, c := range hist {
		if sum += int(c); sum >= need {
			return min(end, lo+int64(b+1)<<shift)
		}
	}
	return end
}

// sweep collects into p.ent the stage's candidates: the heads released in
// [lo, hi) of the live inputs' active VOQs toward outputs with capacity
// left. Inputs run in ascending port order and each input's VOQs in
// ascending port order off the bitmap words, so candidates are emitted
// pre-sorted by (input, output) and the head-age records are read in
// ascending vi order — plain sequential array traffic, no per-VOQ calls.
// Every head is written to the next slot and the slot kept by advancing
// past it: whether a head falls inside the range is a coin flip the
// branch predictor loses.
func (p *OldestFirst) sweep(v *View, lo, hi int64) {
	ent, mask, n := p.ent, p.mask, 0
	for _, in := range p.live {
		// Room for a full row, so the inner loop stores unconditionally.
		ent = grown(ent, n+len(p.outFree))
		row := v.headRow(int(in))
		for wi, w := range v.voqWords(int(in)) {
			for w &= mask[wi]; w != 0; w &= w - 1 {
				out := wi<<6 + bits.TrailingZeros64(w)
				h := &row[out]
				ent[n] = ofEntry{rel: h.rel, dem: h.dem, in: in, out: int16(out)}
				// Releases are non-negative, so neither difference wraps,
				// and rel-hi < 0 <= rel-lo is one sign bit.
				n += int(uint64((h.rel-hi)&^(h.rel-lo)) >> 63)
			}
		}
	}
	p.ent = ent[:n]
}

// take serves entry e, whose head fits both remaining capacities: it
// walks past already-taken flows to the queue's current head, takes it,
// updates the capacity mirrors, and offers the served head's successor
// to the heap. Returns the served demand, 0 when nothing was taken.
func (p *OldestFirst) take(v *View, e ofEntry) int32 {
	in := int(e.in)
	id := v.VOQHead(in, int(e.out))
	for id != NoID && v.Taken(id) {
		id = v.VOQNext(id)
	}
	if id == NoID || !v.Take(id) {
		return 0 // not reached: e is the queue's untaken head, checked to fit
	}
	d := int32(v.Demand(id))
	p.inFree[e.in] -= d
	p.outFree[e.out] -= d
	if p.inFree[e.in] > 0 {
		// A successor can only serve while its input has capacity left;
		// on unit-capacity inputs this never pushes, and the heap costs
		// nothing.
		p.push(v, v.VOQNext(id), e.in, e.out)
	}
	return d
}

// order arranges p.ent, whose releases lie in [lo, hi), into p.ord in
// global (rel, in, out) order. The sweep emitted entries (in, out)-sorted,
// so one stable counting pass by release — O(candidates + hi - lo) —
// finishes the job without comparing anything. A range far wider than the
// entry count (idle-jump shaped streams, a sparse last stage) falls back
// to one comparison sort of everything.
func (p *OldestFirst) order(lo, hi int64) {
	p.ord = grown(p.ord, len(p.ent))
	if hi-lo > int64(4*len(p.ent)+64) {
		copy(p.ord, p.ent)
		sortEntries(p.ord)
		p.sorts++
		return
	}
	p.cnt = grown(p.cnt, int(hi-lo))
	clear(p.cnt)
	for i := range p.ent {
		p.cnt[p.ent[i].rel-lo]++
	}
	sum := int32(0)
	for i, c := range p.cnt {
		p.cnt[i] = sum
		sum += c
	}
	for i := range p.ent {
		b := p.ent[i].rel - lo
		p.ord[p.cnt[b]] = p.ent[i]
		p.cnt[b]++
	}
}

// grown returns s resized to n elements, those within its old capacity
// kept, on the same array when that holds n and on one grown by append's
// geometric rule when not — so a backlog that ramps to a new high-water
// mark costs O(log) reallocations, not one per round.
func grown[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...) //flowsched:allow alloc: pick scratch is length-reset per stage and grows geometrically to its high-water mark (TestOldestFirstRampAllocBounded)
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

// push offers the first untaken flow at or after id in VOQ (in, out) to
// the successor heap, keyed by its own record — a served head's successor
// sorts strictly after every entry scanned so far (same ports, same or
// later release, later seq), so the merged scan order stays globally
// sorted.
func (p *OldestFirst) push(v *View, id ID, in, out int16) {
	for id != NoID && v.Taken(id) {
		id = v.VOQNext(id)
	}
	if id == NoID {
		return
	}
	p.heapPush(ofEntry{rel: v.Release(id), dem: int32(v.Demand(id)), in: in, out: out})
}

// heapPush sifts e up into the min-heap.
func (p *OldestFirst) heapPush(e ofEntry) {
	p.h = append(p.h, e) //flowsched:allow alloc: heap scratch is length-reset per round and grows to the pending high-water mark (TestSteadyStateZeroAlloc)
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
