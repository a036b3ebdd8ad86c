package stats

import (
	"math"
	"runtime"
	"sync/atomic"
)

// EpochWindow is the concurrent counterpart of the tests' WindowQuantiles
// oracle: the same rotating ring of histogram shards over a sliding window
// of rounds, but safe to query from other goroutines while a single writer
// records — without the writer ever taking a lock or allocating.
//
// The protocol is a seqlock. The writer brackets each round's Observe
// calls in Begin/End, which bump an epoch counter to odd (write open) and
// back to even (stable). Begin also rotates the ring and finds the round's
// slot, so an Observe is one bucket increment: no divide, no rotation
// check. Ring state is typed atomic words: the writer, the only one, bumps
// a count with a load and a store, and a reader merges with loads; a
// slot's observation count is the sum of its buckets, taken on read. A
// reader snapshots the epoch, merges the live rings, and retries if the
// epoch was odd or changed underneath it — so readers never block the
// writer, and the writer never waits for readers. After maxReadRetries
// inconsistent attempts a reader keeps its last merge, which can be
// mid-write by at most one round's observations: quantile sketches are
// approximate by construction, so a torn read only perturbs the
// estimate, never memory safety (counts are word-atomic).
//
// Ring expiry moved from the writer to the reader: each ring slot is
// labelled with the period it covers, and ReadInto skips slots whose
// period has slid out of the window as of the caller's round — the
// equivalent of the oracle's Advance without mutating shared state
// from the read side.
//
// Every ring is preallocated to the sketch's full bucket range at
// construction (about 8KB each), so Observe performs zero heap
// allocations for any value.
type EpochWindow struct {
	seq   atomic.Uint64
	rings []liveHistogram
	// period covered by ring i.
	periods []atomic.Int64

	perShard int

	// Writer-only rotation state; cur is the open section's ring slot.
	lastPeriod int64
	started    bool
	cur        *liveHistogram
}

// maxReadRetries bounds a reader's seqlock retry loop; past it the reader
// keeps the (approximate) merge it has.
const maxReadRetries = 16

// neverPeriod labels a ring slot that has not covered any rounds yet; it
// compares below every reachable window.
const neverPeriod = math.MinInt64 / 2

// NewEpochWindow returns a concurrent sliding window covering
// (approximately) the given number of rounds, split into the given number
// of ring shards. Both arguments are clamped to at least 1.
func NewEpochWindow(windowRounds, shards int) *EpochWindow {
	if shards < 1 {
		shards = 1
	}
	if windowRounds < shards {
		windowRounds = shards
	}
	w := &EpochWindow{
		rings:    make([]liveHistogram, shards),
		periods:  make([]atomic.Int64, shards),
		perShard: (windowRounds + shards - 1) / shards,
	}
	for i := range w.rings {
		w.rings[i].counts = make([]atomic.Uint64, sketchBucket(math.MaxInt)+1)
		w.periods[i].Store(neverPeriod)
	}
	return w
}

// Begin opens a write section for the observations of one round,
// rotating ring slots whose rounds have slid out of the window and
// finding the slot round belongs to. Rounds must be non-decreasing across
// sections. Observe calls are only valid between Begin and End; the writer
// is a single goroutine.
//
//flowsched:hotpath
func (w *EpochWindow) Begin(round int) {
	w.seq.Add(1)
	n := int64(len(w.rings))
	period := int64(round) / int64(w.perShard)
	switch {
	case !w.started:
		w.started = true
		w.lastPeriod = period
		w.periods[period%n].Store(period)
	case period > w.lastPeriod:
		// Rotate: reset and relabel every slot for the periods the window
		// just entered (at most one full ring, however large the jump).
		q := period - n + 1
		if lo := w.lastPeriod + 1; lo > q {
			q = lo
		}
		for ; q <= period; q++ {
			w.rings[q%n].reset()
			w.periods[q%n].Store(q)
		}
		w.lastPeriod = period
	}
	w.cur = &w.rings[period%n]
}

// End closes the write section opened by Begin.
//
//flowsched:hotpath
func (w *EpochWindow) End() { w.seq.Add(1) }

// Observe records value v (negative values count as 0) at the round of
// the open section. It never allocates.
//
//flowsched:hotpath
func (w *EpochWindow) Observe(v int) {
	if v < 0 {
		v = 0
	}
	c := &w.cur.counts[sketchBucket(uint64(v))]
	c.Store(c.Load() + 1)
}

// ReadInto resets dst and merges the window's observations that are still
// live as of round into it. It is safe to call from any goroutine
// concurrently with a writer; dst must not be shared between concurrent
// readers. Slots whose period has slid out of the window by round are
// skipped, so a long-idle window reads as empty without the writer's
// involvement.
func (w *EpochWindow) ReadInto(dst *LogHistogram, round int) {
	minPeriod := int64(round)/int64(w.perShard) - int64(len(w.rings)) + 1
	for attempt := 0; ; attempt++ {
		s1 := w.seq.Load()
		if s1&1 != 0 {
			if attempt >= maxReadRetries {
				s1-- // give up waiting: merge anyway, accept the tear
			} else {
				runtime.Gosched()
				continue
			}
		}
		dst.Reset()
		for i := range w.rings {
			if w.periods[i].Load() < minPeriod {
				continue
			}
			w.rings[i].mergeInto(dst)
		}
		if w.seq.Load() == s1 || attempt >= maxReadRetries {
			return
		}
		runtime.Gosched()
	}
}

// WindowSnapshot is a serializable image of an EpochWindow's live state:
// the ring slots' period labels and bucket counts, plus the geometry
// needed to judge compatibility at import. It exists for checkpointing —
// a restored runtime imports the snapshot so sliding-window response
// quantiles are continuous across a restore instead of restarting empty.
type WindowSnapshot struct {
	PerShard int        `json:"per_shard"`
	Periods  []int64    `json:"periods"`
	Counts   [][]uint64 `json:"counts"`
	// Ns[i] is slot i's observation count, the sum of Counts[i]. Export
	// writes it for readers of the image; Import derives it instead.
	Ns []uint64 `json:"ns"`
}

// Export captures the window's state into a fresh snapshot. The caller
// must hold the writer quiescent (checkpoint captures run on the
// coordinator between rounds); concurrent readers are harmless — they
// only load.
func (w *EpochWindow) Export() WindowSnapshot {
	n := len(w.rings)
	s := WindowSnapshot{
		PerShard: w.perShard,
		Periods:  make([]int64, n),
		Counts:   make([][]uint64, n),
		Ns:       make([]uint64, n),
	}
	for i := range w.rings {
		ring := &w.rings[i]
		s.Periods[i] = w.periods[i].Load()
		s.Counts[i] = make([]uint64, len(ring.counts))
		for b := range ring.counts {
			c := ring.counts[b].Load()
			s.Counts[i][b] = c
			s.Ns[i] += c
		}
	}
	return s
}

// Import merges a snapshot into the window. Geometry differences are
// tolerated conservatively: a snapshot with a different per-shard period
// width is dropped entirely (its period labels mean something else), a
// slot whose period predates the importing ring's label is dropped, and
// one that postdates it relabels the slot first — so an import never
// rewinds the window, and a changed ring count merely folds several old
// periods together. Runs single-threaded (construction time, before any
// writer or reader exists).
func (w *EpochWindow) Import(s *WindowSnapshot) {
	if s.PerShard != w.perShard {
		return
	}
	n := int64(len(w.rings))
	for j := range s.Periods {
		if j >= len(s.Counts) {
			break
		}
		p := s.Periods[j]
		if p == neverPeriod {
			continue
		}
		i := p % n
		ring := &w.rings[i]
		switch cur := w.periods[i].Load(); {
		case cur == p:
		case cur < p:
			ring.reset()
			w.periods[i].Store(p)
		default:
			continue
		}
		cnts := s.Counts[j]
		if len(cnts) > len(ring.counts) {
			cnts = cnts[:len(ring.counts)]
		}
		for b, c := range cnts {
			ring.counts[b].Add(c)
		}
		w.started = true
		if p > w.lastPeriod {
			w.lastPeriod = p
		}
	}
}

// liveHistogram is one EpochWindow ring slot: a LogHistogram's counts
// held in typed atomic words, preallocated to every bucket, so readers
// may load them while the writer stores.
type liveHistogram struct {
	counts []atomic.Uint64
}

// reset empties the histogram under concurrent readers.
func (h *liveHistogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
}

// mergeInto adds h's observations into dst, which is reader-private.
func (h *liveHistogram) mergeInto(dst *LogHistogram) {
	dst.Grow(math.MaxInt) // h covers every bucket
	for i := range h.counts {
		c := h.counts[i].Load()
		dst.counts[i] += c
		dst.n += c
	}
}
