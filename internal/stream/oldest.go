package stream

import (
	"math/bits"
	"slices"

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
// The policy keeps the active VOQ heads of its scope from one round to
// the next, in one of two layouts that Reset chooses from the switch's
// capacities. Between two picks at most the heads the last round served
// or expired and the VOQs it activated change, and the runtime's stale
// bitmap names exactly those, so a pick starts by syncing each active
// input: its changed VOQs leave the layout, View.headRow refreshes their
// head records (it stays their one writer), and the still-active heads
// go back in under their new releases.
//
// On a switch whose every port capacity is 1 — the paper's model, where
// every demand is 1 too — the layout is a window of per-release head
// bitmaps (oldest_unit.go), while the pending releases span fewer than
// ofMaxSlots rounds: for each pending release, each scope input's
// bitmap of the outputs whose head was released then, and the bitmap of
// the inputs with any. A changed head costs O(1), one bit cleared and one
// set. The pick walks the releases oldest first; at each, every input
// still free, in ascending port order, ANDs its bitmap with the
// free-output mask and is matched to the lowest output, reading no flow
// record; the walk done, the matched heads are taken in the order
// matched. A unit input takes one flow a round, so no served head's
// successor competes in the same pick and no demand needs checking.
//
// On every other switch, and on unit ports while the pending releases
// span more than the window holds, the layout is, for each input of the
// scope, the list of its active heads sorted by (release, output). The
// merge walks
// releases oldest first through a bucket queue of inputs, each keyed by
// the release at its list's cursor: at each release every input with
// capacity left, in ascending port order, walks its entries of that
// release in output order and takes each head that fits. Capacities only
// fall during a pick, so a head that does not fit now never will: the
// walk passes over it whatever its release, and parks the input at the
// first head that still could. A served head's successor takes the
// head's place in the list, at its own release, for the rest of the
// pick, which is what serves capacities above one and multi-unit demands
// in the exact order.
//
// Either pick ends as soon as the scope's input capacity or the output
// capacity it can see is exhausted, so at depth it examines a few
// entries per port, not every head. The layouts are a cache of the View,
// not state: Reset (construction, restore, Reload) drops them and the
// next pick rebuilds them from the View's head records, so Pick is a
// function of the View plus a cache rebuilt from it, and a checkpoint
// carries nothing for it. The cache relies on every head change reaching
// it through the stale bitmap, so while it is installed no one else calls
// headRow for its inputs.
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
// known. The window takes ⌈rows/64⌉ + rows·⌈NumOut/64⌉ words per
// release slot, rows being the scope's inputs, over a power of two of
// slots, at least 64 and more than the span of pending releases, and is
// built afresh, larger, when the span outgrows it: on the paper's 150
// unit ports at twice their service rate, 256 slots (928 KB) with 16k
// flows resident and 1,024 (3.7 MB) at DefaultMaxPending. It stops at
// ofMaxSlots (1,024 slots, 128 bytes per VOQ of the scope): a burst on
// one VOQ can hold its head back for as many rounds as the burst has
// flows, and while the pending releases span that many the lists stand
// in, handing back once they span under half. An instance owns its
// storage and keeps it across Resets, and a value keeps the instances
// it hands out at K > 1 (NewShard), so a runtime built from a value that
// has run before reuses all of it. A steady-state pick allocates
// nothing.
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
	// unit is set by Reset on a switch whose every port capacity is 1,
	// where the window (oldest_unit.go) picks unless wide is set: the
	// pending releases outspan ofMaxSlots and the lists stand in. The
	// window is win,
	// slots release slots of stride words, each the rw words of its
	// input bitmap and then the scope's rows rows of nw output words;
	// oldest and newest are the first and last pending releases, and
	// freeIn and freeOut the pick's masks of free rows and outputs;
	// pairs is the matching the pick decides before commitUnit takes it
	// (see RoundRobin.pairs).
	unit, wide      bool
	win             []uint64
	slots, stride   int
	rows, nw        int
	oldest, newest  int64
	freeIn, freeOut []uint64
	pairs           []int32
	// shards holds the instances NewShard has handed out, instance k at
	// shards[k], so each keeps its storage from one runtime to the next.
	shards []*OldestFirst
	// builds, visited, moved and grows count, since Reset, the layouts
	// built (first builds and hand-overs), the entries the picks examined
	// (list entries, or the window's input bitmaps at a release), the
	// successors the merges re-keyed and the windows rebuilt larger for
	// the span, for tests and benchmarks; nothing reads them to decide.
	builds, visited, moved, grows int64
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

// Reset implements Resetter: it notes whether the switch's ports allow
// the window, fits the sync mask and the pick's masks and pair scratch
// (the window's) or capacity mirrors (the lists') to the switch, keeping
// their storage, zeroes the counters and marks the layout for a rebuild
// at the next pick. Should the lists stand in for the window, alloc sizes
// their mirrors.
func (p *OldestFirst) Reset(sw switchnet.Switch) {
	p.unit, p.wide = unitPorts(sw), false
	p.mask = fit(p.mask, (sw.NumOut()+63)/64)
	if p.unit {
		p.freeIn = fit(p.freeIn, (sw.NumIn()+63)/64)
		p.freeOut = fit(p.freeOut, len(p.mask))
		p.pairs = slices.Grow(p.pairs[:0], min(sw.NumIn(), sw.NumOut()))
	} else {
		p.inFree = fit(p.inFree, sw.NumIn())
		p.outFree = fit(p.outFree, sw.NumOut())
	}
	p.built = false
	p.builds, p.visited, p.moved, p.grows = 0, 0, 0, 0
}

// fit returns s at length n, reusing its storage when it holds n.
func fit[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Name implements Policy.
func (*OldestFirst) Name() string { return "OldestFirst" }

// NewShard implements Shardable: it hands out the k-th instance the value
// keeps, making it at the first call, and every instance builds its own
// layout over its own scope in storage of its own.
func (p *OldestFirst) NewShard(k int) Policy {
	for len(p.shards) <= k {
		p.shards = append(p.shards, &OldestFirst{})
	}
	return p.shards[k]
}

// Pick implements Policy.
//
//flowsched:hotpath
func (p *OldestFirst) Pick(v *View) {
	p.refresh(v)
	if p.windowed() {
		p.pickUnit(v)
		return
	}

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

// refresh brings the layout up to date with the View. On unit ports it
// first settles which layout picks: the lists stand in for the window
// while the pending releases span ofMaxSlots or more, and hand back once
// they span under half that, each layout built afresh when it takes
// over. A layout is built, too, at the first pick after Reset, the window
// again once the span outgrows it and the lists should the releases
// outrun their keys; otherwise every active input with a stale head
// syncs.
func (p *OldestFirst) refresh(v *View) {
	if p.unit {
		rt := v.rt
		p.oldest, p.newest = rt.ar.rec[rt.head].rel, rt.ar.rec[rt.tail].rel
		span := p.newest - p.oldest
		if wide := span >= ofMaxSlots || p.wide && span >= ofMaxSlots/2; wide != p.wide {
			p.wide, p.built = wide, false
		}
	}
	win := p.windowed()
	switch {
	case !p.built && win:
		p.builds++
		p.buildUnit(v)
		return
	case win && p.newest-p.oldest >= int64(p.slots):
		p.grows++
		p.buildUnit(v)
		return
	case !win && (!p.built || int64(v.Round())-p.rel0 >= 1<<40):
		p.builds++
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
		if stale == 0 {
			continue
		}
		if win {
			p.syncUnit(v, in)
		} else {
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
	if len(p.n) < rows || cap(p.keys) < rows*p.mOut || len(p.add) < p.mOut || len(p.inFree) < rt.sw.NumIn() || len(p.outFree) != p.mOut {
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
}

// alloc sizes the lists, the merge's bitmaps and, where Reset sized the
// window's masks instead, the capacity mirrors to rows inputs; or, on the
// window, the window to slots release slots.
//
//flowsched:allow alloc: the lists are allocated once per scope layout and the window once per scope layout and span it outgrows, both kept across Resets, so a round allocates nothing (TestOldestFirstRampAllocBounded)
func (p *OldestFirst) alloc(rows int) {
	if p.windowed() {
		p.win = make([]uint64, p.slots*p.stride)
		return
	}
	rw := (rows + 63) / 64
	if len(p.inFree) < rows*p.nk || len(p.outFree) != p.mOut {
		p.inFree, p.outFree = make([]int32, rows*p.nk), make([]int32, p.mOut)
	}
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
