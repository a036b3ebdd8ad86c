package stats

import (
	"math/rand"
	"sync"
	"testing"
)

// WindowQuantiles is EpochWindow's single-threaded oracle: it tracks
// quantiles over a sliding window of the most recent rounds by rotating a fixed ring of LogHistogram shards: each shard covers
// window/shards consecutive rounds, and a query merges the live shards.
// Memory is O(shards * buckets) regardless of how many observations ever
// arrived. Rounds must be observed in non-decreasing order.
type WindowQuantiles struct {
	shards     []LogHistogram
	perShard   int
	lastPeriod int64
	started    bool
	scratch    LogHistogram
}

// NewWindowQuantiles returns a sliding window covering (approximately) the
// given number of rounds, split into the given number of shards. Both
// arguments are clamped to at least 1.
func NewWindowQuantiles(windowRounds, shards int) *WindowQuantiles {
	if shards < 1 {
		shards = 1
	}
	if windowRounds < shards {
		windowRounds = shards
	}
	return &WindowQuantiles{
		shards:   make([]LogHistogram, shards),
		perShard: (windowRounds + shards - 1) / shards,
	}
}

// Observe records value v at the given round, expiring shards whose rounds
// have slid out of the window.
func (w *WindowQuantiles) Observe(round, v int) {
	w.advance(round)
	w.shards[w.lastPeriod%int64(len(w.shards))].Add(v)
}

// Advance expires shards that have slid out of the window as of round,
// without recording an observation — call it before querying quantiles
// when observations may have stopped arriving (an idle or stalled stream),
// so stale shards do not linger in the reported window.
func (w *WindowQuantiles) Advance(round int) { w.advance(round) }

// advance rotates the ring up to the shard period containing round.
func (w *WindowQuantiles) advance(round int) {
	period := int64(round) / int64(w.perShard)
	if !w.started {
		w.started = true
		w.lastPeriod = period
		return
	}
	if period <= w.lastPeriod {
		return
	}
	steps := period - w.lastPeriod
	if steps > int64(len(w.shards)) {
		steps = int64(len(w.shards))
	}
	for s := int64(1); s <= steps; s++ {
		w.shards[(w.lastPeriod+s)%int64(len(w.shards))].Reset()
	}
	w.lastPeriod = period
}

// N returns the number of observations currently inside the window.
func (w *WindowQuantiles) N() uint64 {
	var n uint64
	for i := range w.shards {
		n += w.shards[i].n
	}
	return n
}

// Quantile returns the q-quantile over the window's live observations; 0
// if the window is empty.
func (w *WindowQuantiles) Quantile(q float64) float64 {
	w.scratch.Reset()
	w.MergeInto(&w.scratch)
	return w.scratch.Quantile(q)
}

// MergeInto merges the window's live observations into dst. It is the
// cross-window merge path for sharded runtimes that keep one
// WindowQuantiles per shard over the same rounds and combine them at
// snapshot time: merging every shard's window into one LogHistogram
// yields the same quantiles as a single window observing all values.
func (w *WindowQuantiles) MergeInto(dst *LogHistogram) {
	for i := range w.shards {
		dst.Merge(&w.shards[i])
	}
}

// Grow preallocates every ring shard and the query scratch to cover
// observations up to max, so Observe, Advance, and Quantile stop
// allocating once the window is constructed: rotation already reuses the
// shard backing arrays (Reset retains storage), and growing up front
// removes the remaining Add/Merge growth path.
func (w *WindowQuantiles) Grow(max int) {
	for i := range w.shards {
		w.shards[i].Grow(max)
	}
	w.scratch.Grow(max)
}

// TestEpochWindowMatchesWindowQuantiles: with a single writer and no
// concurrency, the epoch window must report exactly the quantiles of a
// WindowQuantiles fed the same observation stream — same ring geometry,
// same rotation, same expiry.
func TestEpochWindowMatchesWindowQuantiles(t *testing.T) {
	ew := NewEpochWindow(64, 8)
	wq := NewWindowQuantiles(64, 8)
	rng := rand.New(rand.NewSource(4))
	var dst LogHistogram
	round := 0
	for step := 0; step < 400; step++ {
		round += rng.Intn(4)
		ew.Begin(round)
		for k := rng.Intn(5); k >= 0; k-- {
			v := rng.Intn(1 << uint(rng.Intn(16)))
			ew.Observe(v)
			wq.Observe(round, v)
		}
		ew.End()
		if step%37 != 0 {
			continue
		}
		ew.ReadInto(&dst, round)
		wq.Advance(round)
		if got, want := dst.N(), wq.N(); got != want {
			t.Fatalf("round %d: epoch window holds %d observations, WindowQuantiles %d", round, got, want)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if got, want := dst.Quantile(q), wq.Quantile(q); got != want {
				t.Fatalf("round %d q=%.2f: epoch %v, WindowQuantiles %v", round, q, got, want)
			}
		}
	}
	// A long quiet gap must expire everything on the read side alone.
	ew.ReadInto(&dst, round+10_000)
	if dst.N() != 0 {
		t.Fatalf("stale epoch window still reports %d observations", dst.N())
	}
}

// TestEpochWindowConcurrentReaders hammers ReadInto from several
// goroutines while the writer records — the seqlock protocol must stay
// race-clean (meaningful under -race) and every consistent read must see a
// plausible window.
func TestEpochWindowConcurrentReaders(t *testing.T) {
	w := NewEpochWindow(128, 8)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst LogHistogram
			for {
				select {
				case <-done:
					return
				default:
					w.ReadInto(&dst, 1<<20) // far future: reads as empty
					if dst.N() != 0 {
						t.Error("future read saw live observations")
						return
					}
					w.ReadInto(&dst, 600)
				}
			}
		}()
	}
	for round := 0; round < 600; round++ {
		w.Begin(round)
		for k := 0; k < 8; k++ {
			w.Observe(round + k)
		}
		w.End()
	}
	close(done)
	wg.Wait()
	var dst LogHistogram
	w.ReadInto(&dst, 599)
	if dst.N() == 0 {
		t.Fatal("final read saw an empty window")
	}
}

// TestEpochWindowRecordNoAlloc pins the writer path to zero allocations:
// rings are preallocated to the sketch's full bucket range, so Begin,
// Observe (any value), rotation, and End never touch the allocator.
func TestEpochWindowRecordNoAlloc(t *testing.T) {
	w := NewEpochWindow(256, 8)
	round := 0
	allocs := testing.AllocsPerRun(200, func() {
		w.Begin(round)
		w.Observe(round * 7)
		w.Observe(1 << 40)
		w.End()
		round += 3 // crosses shard periods, exercising rotation
	})
	if allocs != 0 {
		t.Fatalf("record path allocated %v per round, want 0", allocs)
	}
	var dst LogHistogram
	w.ReadInto(&dst, round) // grow dst once
	allocs = testing.AllocsPerRun(100, func() {
		w.ReadInto(&dst, round)
	})
	if allocs != 0 {
		t.Fatalf("read path allocated %v per call, want 0", allocs)
	}
}

// TestWindowSnapshotRoundTrip pins the checkpoint path: an export
// imported into a fresh same-geometry window must reproduce the exact
// quantiles, the importer must merge rather than clobber when the
// target already holds newer periods, and geometry or staleness
// mismatches must degrade to drops — never to a rewound window.
func TestWindowSnapshotRoundTrip(t *testing.T) {
	src := NewEpochWindow(64, 8)
	for round := 0; round < 200; round++ {
		src.Begin(round)
		src.Observe(round * 3)
		src.Observe(round % 17)
		src.End()
	}
	snap := src.Export()

	var want, got LogHistogram
	src.ReadInto(&want, 199)

	// Exact restore into an empty twin.
	dst := NewEpochWindow(64, 8)
	dst.Import(&snap)
	dst.ReadInto(&got, 199)
	if got.N() != want.N() {
		t.Fatalf("restored window holds %d observations, source %d", got.N(), want.N())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if g, w := got.Quantile(q), want.Quantile(q); g != w {
			t.Fatalf("q=%.2f: restored %v, source %v", q, g, w)
		}
	}

	// Rotation must keep working after an import: advancing far enough
	// expires the imported periods on the read side.
	dst.Begin(10_000)
	dst.Observe(1)
	dst.End()
	dst.ReadInto(&got, 10_000)
	if got.N() != 1 {
		t.Fatalf("post-import rotation kept %d observations live, want 1", got.N())
	}

	// A newer resident period must not be clobbered by an older snapshot
	// slot: import into a window already past the snapshot.
	ahead := NewEpochWindow(64, 8)
	for round := 5_000; round < 5_100; round++ {
		ahead.Begin(round)
		ahead.Observe(7)
		ahead.End()
	}
	var before LogHistogram
	ahead.ReadInto(&before, 5_099)
	ahead.Import(&snap) // every snapshot period predates the residents
	ahead.ReadInto(&got, 5_099)
	if got.N() != before.N() {
		t.Fatalf("stale import changed a newer window: %d observations, want %d", got.N(), before.N())
	}

	// Geometry mismatch: per-shard width differs, the import is a no-op.
	other := NewEpochWindow(64, 4)
	other.Import(&snap)
	other.ReadInto(&got, 199)
	if got.N() != 0 {
		t.Fatalf("mismatched-geometry import leaked %d observations", got.N())
	}
}
