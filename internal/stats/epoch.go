package stats

import (
	"math"
	"runtime"
	"sync/atomic"
)

// EpochWindow is the concurrent counterpart of the tests' WindowQuantiles
// oracle: the same rotating ring of LogHistogram shards over a sliding window of rounds,
// but safe to query from other goroutines while a single writer records —
// without the writer ever taking a lock or allocating.
//
// The protocol is a seqlock. The writer brackets each batch of Observe
// calls in Begin/End, which bump an epoch counter to odd (write open) and
// back to even (stable); every mutation of ring state between them is a
// plain load plus an atomic store. A reader snapshots the epoch, merges
// the live rings with atomic loads, and retries if the epoch was odd or
// changed underneath it — so readers never block the writer, and the
// writer never waits for readers. After maxReadRetries inconsistent
// attempts a reader keeps its last merge, which can be mid-write by at
// most one round's observations: quantile sketches are approximate by
// construction, so a torn read only perturbs the estimate, never memory
// safety (counts are word-atomic).
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
	rings []LogHistogram
	// period covered by ring i.
	//flowsched:allow atomic: seqlock single-writer — the writer mixes plain reads with atomic stores; readers take the atomic side and retry on seq mismatch
	periods []int64

	perShard int

	// Writer-only rotation state.
	lastPeriod int64
	started    bool
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
		rings:    make([]LogHistogram, shards),
		periods:  make([]int64, shards),
		perShard: (windowRounds + shards - 1) / shards,
	}
	for i := range w.rings {
		w.rings[i].Grow(math.MaxInt)
		w.periods[i] = neverPeriod
	}
	return w
}

// Begin opens a write section. Observe calls are only valid between Begin
// and End; the writer is a single goroutine.
//
//flowsched:hotpath
func (w *EpochWindow) Begin() { w.seq.Add(1) }

// End closes the write section opened by Begin.
//
//flowsched:hotpath
func (w *EpochWindow) End() { w.seq.Add(1) }

// Observe records value v at the given round, rotating ring slots whose
// rounds have slid out of the window. Rounds must be non-decreasing. It
// must be called inside a Begin/End section and never allocates.
//
//flowsched:hotpath
func (w *EpochWindow) Observe(round, v int) {
	n := int64(len(w.rings))
	period := int64(round) / int64(w.perShard)
	switch {
	case !w.started:
		w.started = true
		w.lastPeriod = period
		atomic.StoreInt64(&w.periods[period%n], period)
	case period > w.lastPeriod:
		// Rotate: reset and relabel every slot for the periods the window
		// just entered (at most one full ring, however large the jump).
		q := period - n + 1
		if lo := w.lastPeriod + 1; lo > q {
			q = lo
		}
		for ; q <= period; q++ {
			w.rings[q%n].resetAtomic()
			atomic.StoreInt64(&w.periods[q%n], q)
		}
		w.lastPeriod = period
	}
	ring := &w.rings[period%n]
	if v < 0 {
		v = 0
	}
	b := sketchBucket(uint64(v))
	atomic.StoreUint64(&ring.counts[b], ring.counts[b]+1)
	atomic.StoreUint64(&ring.n, ring.n+1)
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
			if atomic.LoadInt64(&w.periods[i]) < minPeriod {
				continue
			}
			dst.mergeAtomic(&w.rings[i])
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
	Ns       []uint64   `json:"ns"`
}

// Clone returns a deep copy (checkpoint encoding must not alias the
// runtime's reused capture buffers).
func (s *WindowSnapshot) Clone() WindowSnapshot {
	c := WindowSnapshot{
		PerShard: s.PerShard,
		Periods:  append([]int64(nil), s.Periods...),
		Ns:       append([]uint64(nil), s.Ns...),
		Counts:   make([][]uint64, len(s.Counts)),
	}
	for i := range s.Counts {
		c.Counts[i] = append([]uint64(nil), s.Counts[i]...)
	}
	return c
}

// ExportInto captures the window's state into dst, reusing dst's backing
// slices so a warmed caller allocates nothing. The caller must hold the
// writer quiescent (checkpoint captures run on the coordinator between
// rounds); concurrent readers are harmless — they only load.
func (w *EpochWindow) ExportInto(dst *WindowSnapshot) {
	n := len(w.rings)
	dst.PerShard = w.perShard
	dst.Periods = append(dst.Periods[:0], w.periods...)
	dst.Ns = dst.Ns[:0]
	if cap(dst.Counts) < n {
		dst.Counts = append(dst.Counts, make([][]uint64, n-len(dst.Counts))...)
	}
	dst.Counts = dst.Counts[:n]
	for i := range w.rings {
		dst.Counts[i] = append(dst.Counts[i][:0], w.rings[i].counts...)
		dst.Ns = append(dst.Ns, w.rings[i].n)
	}
}

// Import merges a snapshot into the window. Geometry differences are
// tolerated conservatively: a snapshot with a different per-shard period
// width is dropped entirely (its period labels mean something else), a
// slot whose period predates the importing ring's label is dropped, and
// one that postdates it relabels the slot first — so an import never
// rewinds the window, and a changed ring count merely folds several old
// periods together. Runs single-threaded (construction time, before any
// writer or reader exists), so plain stores suffice.
func (w *EpochWindow) Import(s *WindowSnapshot) {
	if s.PerShard != w.perShard {
		return
	}
	n := int64(len(w.rings))
	for j := range s.Periods {
		if j >= len(s.Counts) || j >= len(s.Ns) {
			break
		}
		p := s.Periods[j]
		if p == neverPeriod {
			continue
		}
		i := p % n
		ring := &w.rings[i]
		switch {
		case w.periods[i] == p:
		case w.periods[i] < p:
			ring.Reset()
			w.periods[i] = p
		default:
			continue
		}
		cnts := s.Counts[j]
		if len(cnts) > len(ring.counts) {
			cnts = cnts[:len(ring.counts)]
		}
		for b, c := range cnts {
			ring.counts[b] += c
		}
		ring.n += s.Ns[j]
		w.started = true
		if p > w.lastPeriod {
			w.lastPeriod = p
		}
	}
}

// resetAtomic is Reset with atomic element stores, for histograms readers
// may be loading concurrently.
func (h *LogHistogram) resetAtomic() {
	atomic.StoreUint64(&h.n, 0)
	for i := range h.counts {
		atomic.StoreUint64(&h.counts[i], 0)
	}
}

// mergeAtomic is Merge with atomic element loads from src; dst is
// reader-private, so its side stays plain.
func (dst *LogHistogram) mergeAtomic(src *LogHistogram) {
	if len(src.counts) > len(dst.counts) {
		grown := make([]uint64, len(src.counts))
		copy(grown, dst.counts)
		dst.counts = grown
	}
	for i := range src.counts {
		dst.counts[i] += atomic.LoadUint64(&src.counts[i])
	}
	dst.n += atomic.LoadUint64(&src.n)
}
