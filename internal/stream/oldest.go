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
// The policy keeps, for each input of its scope, the list of that
// input's active VOQ heads sorted by (release, output), from one round
// to the next. Between two picks at most the heads the last round served
// or expired and the VOQs it activated change, and the runtime's stale
// bitmap names exactly those, so a pick starts by syncing each active
// input: the entries of its changed VOQs are dropped, View.headRow
// refreshes their head records (it stays their one writer), and the
// still-active heads go back in under their new releases. The merge then
// walks releases oldest first through a bucket queue of inputs, each
// keyed by the release at its list's cursor: at each release every input
// with capacity left, in ascending port order, walks its entries of that
// release in output order and takes each head that fits. Capacities only
// fall during a pick, so a head that does not fit now never will: the
// walk passes over it whatever its release, and parks the input at the
// first head that still could. A served head's successor takes the
// head's place in the list, at its own release, for the rest of the
// pick, which is what serves capacities above one and multi-unit demands
// in the exact order. The pick ends as soon as the scope's input
// capacity or the output capacity it can see is exhausted, so at depth
// it examines a few entries per port, not every head.
//
// The lists are a cache of the View, not state: Reset (construction,
// restore, Reload) drops them and the next pick rebuilds them from the
// View's head records, so Pick is a function of the View plus a cache
// rebuilt from it, and a checkpoint carries nothing for it. The cache
// relies on every head change reaching it through the stale bitmap, so
// while it is installed no one else calls headRow for its inputs.
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
// The lists take one row of NumOut 8-byte keys per scope input (see
// ofKey), allocated at the first pick after Reset, when the scope is
// known, and kept across Resets; a pick allocates nothing.
//
// OldestFirst is Shardable: the instances take turns, oldest first (see
// turns.Pick), and each serves its own inputs' heads oldest-first
// against the output capacity the turns before it left.
// That is not the global age-greedy selection — the equivalence with the
// MinRTime-style first fit above is a one-shard property (see the
// package docs, "Sharding caveat").
type OldestFirst struct {
	// keys holds a row of mOut entries per scope input, input in at row
	// in/nk: its active VOQ heads as ofKey keys, ascending, in the first
	// n[row]. cur[row] is the merge's cursor; succ[row] is set when a
	// pick re-keyed a served head's entry to its successor, whose key no
	// head record holds, so the next sync drops by VOQ, not by key.
	keys   []uint64
	n, cur []int32
	succ   []bool
	// k and nk are the scope (View.k) and shard count the rows are laid
	// out for; rel0, the keys' origin, is at most every release pending
	// or still to come when the lists were built.
	k, nk, mOut int
	rel0        int64
	built       bool
	// inFree/outFree mirror the ports' capacity left during the pick;
	// inSum and nOut count the free input capacity and the outputs with
	// any left.
	inFree, outFree []int32
	inSum, nOut     int
	// mask holds the VOQs one sync replaces (an input's stale words, or
	// all when building), add the keys it inserts.
	mask, add []uint64
	// The merge's bucket queue: bucket b is a bitmap over rows of the
	// inputs whose cursor release is lo+b (occ marks the non-empty
	// ones, rw is the words per bitmap), over those past the window.
	bkt, over []uint64
	occ, lo   uint64
	rw        int
	// builds, visited and moved count the lists' builds, the entries the
	// merges examined and the successors they re-keyed, for tests and
	// benchmarks; nothing reads them to decide.
	builds, visited, moved int64
}

// ofWindow is the bucket queue's width in releases: one occupancy word.
const ofWindow = 64

// ofKey packs a list entry, so the merge reads nothing else to check a
// head's fit: the release relative to rel0 (41 bits), the output (15)
// and the demand (8, saturating at ofDemMax). Keys order as (release,
// output), a VOQ having at most one.
func ofKey(rel int64, out int, dem int32) uint64 {
	return uint64(rel)<<23 | uint64(out)<<8 | uint64(min(dem, ofDemMax))
}

// ofRel, ofOut and ofDem unpack a key.
func ofRel(key uint64) uint64 { return key >> 23 }
func ofOut(key uint64) int    { return int(key >> 8 & portMask) }
func ofDem(key uint64) int32  { return int32(key & ofDemMax) }

// ofDemMax is the largest demand a key holds; it stands for any demand
// at least that large.
const ofDemMax = 1<<8 - 1

// Reset implements Resetter: it sizes the capacity mirrors and the sync
// mask to the switch and marks the lists for a rebuild at the next pick.
func (p *OldestFirst) Reset(sw switchnet.Switch) {
	p.inFree = make([]int32, sw.NumIn())
	p.outFree = make([]int32, sw.NumOut())
	p.mask = make([]uint64, (sw.NumOut()+63)/64)
	p.built = false
}

// Name implements Policy.
func (*OldestFirst) Name() string { return "OldestFirst" }

// NewShard implements Shardable: every instance builds its own lists
// over its own scope, so a fresh instance per scope shares nothing.
func (*OldestFirst) NewShard() Policy { return &OldestFirst{} }

// Pick implements Policy.
//
//flowsched:hotpath
func (p *OldestFirst) Pick(v *View) {
	p.refresh(v)

	// Every input with capacity and a head starts at its first entry,
	// past the window, so the first rebase pulls in the oldest.
	clear(p.bkt)
	clear(p.over)
	p.occ, p.inSum, p.nOut = 0, 0, 0
	for j := range p.outFree {
		free := v.OutputFree(j)
		p.outFree[j] = int32(free)
		if free > 0 {
			p.nOut++
		}
	}
	for a := range v.NumActiveInputs() {
		in := v.ActiveInput(a)
		free, r := v.InputFree(in), in/p.nk
		p.inFree[in] = int32(free)
		if free > 0 && p.n[r] > 0 {
			p.cur[r] = 0
			p.over[r>>6] |= 1 << uint(r&63)
			p.inSum += free
		}
	}
	for p.inSum > 0 && p.nOut > 0 && (p.occ != 0 || p.rebase()) {
		b := bits.TrailingZeros64(p.occ)
		p.occ &^= 1 << uint(b)
		rel := p.lo + uint64(b)
		words := p.bkt[b*p.rw : (b+1)*p.rw]
		for wi, w := range words {
			words[wi] = 0
			for ; w != 0; w &= w - 1 {
				p.serve(v, wi<<6+bits.TrailingZeros64(w), rel)
				if p.inSum == 0 || p.nOut == 0 {
					return
				}
			}
		}
	}
}

// refresh brings the lists up to date with the View: it syncs every
// active input with a stale head, or builds the lists if there are none.
func (p *OldestFirst) refresh(v *View) {
	if !p.built || int64(v.Round())-p.rel0 >= 1<<40 {
		p.build(v)
		return
	}
	for a := range v.NumActiveInputs() {
		in := v.ActiveInput(a)
		stale := 0
		for wi, w := range v.staleWords(in) {
			p.mask[wi] = w
			stale += bits.OnesCount64(w)
		}
		if stale > 0 {
			p.sync(v, in, stale)
		}
	}
}

// build lays the lists out for the View's scope and fills them from
// scratch: every active input's row holds all its active VOQs. It runs
// at the first pick after Reset, and again should the pending releases
// outrun the keys' 41 bits of span.
func (p *OldestFirst) build(v *View) {
	rt := v.rt
	p.k, p.nk, p.mOut = v.k, rt.nshards, rt.mOut
	rows := (rt.sw.NumIn() + p.nk - 1) / p.nk
	if len(p.n) < rows || cap(p.keys) < rows*p.mOut || len(p.add) < p.mOut {
		p.alloc(rows)
	}
	p.keys = p.keys[:rows*p.mOut]
	p.rw = (rows + 63) / 64
	p.bkt, p.over = p.bkt[:ofWindow*p.rw], p.over[:p.rw]
	// Releases never fall below the last one consumed, nor below the
	// oldest pending flow's.
	p.rel0 = int64(rt.lastRel)
	if rt.head != noID {
		p.rel0 = min(p.rel0, rt.ar.rec[rt.head].rel)
	}
	clear(p.n)
	clear(p.succ)
	for wi := range p.mask {
		p.mask[wi] = ^uint64(0)
	}
	for a := range v.NumActiveInputs() {
		p.sync(v, v.ActiveInput(a), p.mOut)
	}
	p.built = true
	p.builds++
}

// alloc sizes the lists and the merge's bitmaps to rows inputs.
//
//flowsched:allow alloc: the lists are allocated once per scope layout and kept across Resets, so a round allocates nothing (TestOldestFirstRampAllocBounded)
func (p *OldestFirst) alloc(rows int) {
	rw := (rows + 63) / 64
	p.keys = make([]uint64, rows*p.mOut)
	p.n, p.cur = make([]int32, rows), make([]int32, rows)
	p.succ = make([]bool, rows)
	p.add = make([]uint64, p.mOut)
	p.bkt, p.over = make([]uint64, ofWindow*rw), make([]uint64, rw)
}

// sync replaces, in input in's list, the entries of the stale VOQs in
// p.mask: it drops them, refreshes their head records through headRow
// (which clears the input's stale bits), and inserts the heads still
// active. A few changes on a long list go one by one, an entry found by
// the key its head record holds until headRow refreshes it; otherwise
// one pass drops every entry on a stale VOQ, and the new keys are
// sorted and merged in from the back.
//
//flowsched:hotpath
func (p *OldestFirst) sync(v *View, in, stale int) {
	r := in / p.nk
	keys := p.keys[r*p.mOut : (r+1)*p.mOut]
	m, row := int(p.n[r]), v.rt.heads[in*p.mOut:(in+1)*p.mOut]
	few := !p.succ[r] && stale*ofFew <= m
	if few {
		for wi, w := range p.mask {
			for ; w != 0; w &= w - 1 {
				out := wi<<6 + bits.TrailingZeros64(w)
				key := ofKey(row[out].rel-p.rel0, out, row[out].dem)
				if i := search(keys[:m], key); i < m && keys[i] == key {
					copy(keys[i:m-1], keys[i+1:m])
					m--
				}
			}
		}
	} else {
		n := 0
		for _, key := range keys[:m] {
			out := ofOut(key)
			keys[n] = key
			n += int(^p.mask[out>>6] >> (out & 63) & 1)
		}
		m, p.succ[r] = n, false
	}
	v.headRow(in)
	add := 0
	for wi, w := range v.voqWords(in) {
		for w &= p.mask[wi]; w != 0; w &= w - 1 {
			out := wi<<6 + bits.TrailingZeros64(w)
			key := ofKey(row[out].rel-p.rel0, out, row[out].dem)
			if few {
				i := search(keys[:m], key)
				copy(keys[i+1:m+1], keys[i:m])
				keys[i] = key
				m++
			} else {
				p.add[add] = key
				add++
			}
		}
	}
	sortKeys(p.add[:add])
	// Merge the new keys in from the back.
	i, j := m-1, add-1
	for w := m + add - 1; j >= 0; w-- {
		if i >= 0 && keys[i] > p.add[j] {
			keys[w] = keys[i]
			i--
		} else {
			keys[w] = p.add[j]
			j--
		}
	}
	p.n[r] = int32(m + add)
}

// ofFew is the list length per stale head from which sync makes its
// changes one by one (a search and a memmove each) instead of in a pass.
const ofFew = 16

// search returns the index of the first key in s at or above key.
func search(s []uint64, key uint64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if s[h] < key {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// serve walks row r's entries released at rel, from its cursor, in
// output order, and takes each head that fits both remaining capacities;
// a head that does not fit blocks its queue for the round. A served
// head's successor takes the head's entry, re-keyed and moved to its
// place. While the input has capacity left it walks on past the heads
// that cannot fit any more and re-queues at the release of the first
// one that can.
//
//flowsched:hotpath
func (p *OldestFirst) serve(v *View, r int, rel uint64) {
	in := r*p.nk + p.k
	keys, outFree := p.keys[r*p.mOut:(r+1)*p.mOut], p.outFree
	n, i, free, seen := int(p.n[r]), int(p.cur[r]), p.inFree[in], int64(0)
	for i < n {
		seen++
		key := keys[i]
		// Capacities only fall during a pick, so a head that does not fit
		// now never will. The key's demand is a lower bound (exact below
		// ofDemMax), so Take, which checks the flow's own, rejects the
		// rest; demands are positive, so a spent port fails too.
		out, dem := ofOut(key), ofDem(key)
		if dem > free || dem > outFree[out] {
			i++
			continue
		}
		if ofRel(key) != rel {
			break
		}
		id := v.VOQHead(in, out) // a successor entry's VOQ head is taken
		for v.Taken(id) {
			id = v.VOQNext(id)
		}
		if !v.Take(id) {
			i++
			continue
		}
		dem = int32(v.Demand(id))
		free -= dem
		outFree[out] -= dem
		p.inSum -= int(dem)
		if outFree[out] == 0 {
			p.nOut--
		}
		if free == 0 || p.nOut == 0 {
			break
		}
		next := v.VOQNext(id)
		if next == NoID {
			i++
			continue
		}
		// The successor sorts after the served head (same ports, same or
		// later release): at the same release it is the next entry to
		// examine, later it moves up to its place.
		succ := ofKey(v.Release(next)-p.rel0, out, int32(v.Demand(next)))
		j := i + 1 + search(keys[i+1:n], succ)
		copy(keys[i:j-1], keys[i+1:j])
		keys[j-1] = succ
		p.succ[r] = true
		p.moved++
	}
	p.inFree[in], p.cur[r] = free, int32(i)
	p.visited += seen
	if free > 0 && i < n {
		p.queue(r, ofRel(keys[i]))
	}
}

// queue files row r under release rel: in its bucket when rel lies in
// the window, past it otherwise.
func (p *OldestFirst) queue(r int, rel uint64) {
	if d := rel - p.lo; d < ofWindow {
		p.bkt[int(d)*p.rw+r>>6] |= 1 << uint(r&63)
		p.occ |= 1 << d
	} else {
		p.over[r>>6] |= 1 << uint(r&63)
	}
}

// rebase moves the window onto the oldest cursor release among the
// inputs past it and files them again; false when none is left.
func (p *OldestFirst) rebase() bool {
	lo := ^uint64(0)
	for wi, w := range p.over {
		for ; w != 0; w &= w - 1 {
			r := wi<<6 + bits.TrailingZeros64(w)
			lo = min(lo, ofRel(p.keys[r*p.mOut+int(p.cur[r])]))
		}
	}
	if lo == ^uint64(0) {
		return false
	}
	p.lo = lo
	for wi, w := range p.over {
		p.over[wi] = 0
		for ; w != 0; w &= w - 1 {
			r := wi<<6 + bits.TrailingZeros64(w)
			p.queue(r, ofRel(p.keys[r*p.mOut+int(p.cur[r])]))
		}
	}
	return true
}

// sortKeys sorts s ascending in place, without allocating: by insertion
// when short (a sync's new keys, mostly in order already), else by
// heapsort (a build's whole row).
func sortKeys(s []uint64) {
	if len(s) <= 16 {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return
	}
	for i := len(s)/2 - 1; i >= 0; i-- {
		siftDown(s, i)
	}
	for end := len(s) - 1; end > 0; end-- {
		s[0], s[end] = s[end], s[0]
		siftDown(s[:end], 0)
	}
}

// siftDown restores the max-heap property of s below i.
func siftDown(s []uint64, i int) {
	for {
		c := 2*i + 1
		if c >= len(s) {
			return
		}
		if c+1 < len(s) && s[c+1] > s[c] {
			c++
		}
		if s[i] >= s[c] {
			return
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
}
