package workload

import (
	"context"
	"slices"
	"testing"

	"flowsched/internal/switchnet"
)

// TestChanSourceCopiesPushedBatch: PushBatch copies what it queues, so a
// caller that overwrites its slice as soon as the call returns — as the
// daemon does with its pooled decode scratch — changes nothing that
// drains, whether the batch fills part of a slab or spills over several.
func TestChanSourceCopiesPushedBatch(t *testing.T) {
	s := NewChanSource(8 * slabChunk)
	var want []switchnet.Flow
	scratch := make([]switchnet.Flow, 0, 3*slabChunk)
	for b, n := range []int{3, slabChunk - 1, 2*slabChunk + 37, 1, slabChunk} {
		scratch = append(scratch[:0], numbered(0, b, n)...)
		if d, err := s.PushBatch(context.Background(), scratch); d != n || err != nil {
			t.Fatalf("batch %d: delivered %d, %v", b, d, err)
		}
		want = append(want, scratch...)
		for i := range scratch {
			scratch[i] = switchnet.Flow{In: -1, Out: -1, Demand: -1}
		}
	}
	s.Close()
	got := drainAll(t, s, 100)
	for i := range got {
		got[i].Release = 0
	}
	if !slices.Equal(got, want) {
		t.Fatalf("drained %d flows that differ from the %d pushed", len(got), len(want))
	}
}

// TestChanSourceWarmFeedAllocs: once the free list holds the slabs a
// push needs, pushing and draining allocate nothing — a 256-flow
// PushBatch as the daemon's handler makes, and a single-flow Push.
func TestChanSourceWarmFeedAllocs(t *testing.T) {
	s := NewChanSource(4 * slabChunk)
	batch := numbered(0, 0, slabChunk)
	dst := make([]switchnet.Flow, 0, slabChunk)
	round := 0
	cycle := func() {
		if _, err := s.PushBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		dst = s.PullBatch(dst[:0], round, slabChunk)
		round++
	}
	for range 4 {
		cycle()
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("warm PushBatch + PullBatch of %d flows: %.1f allocations, want 0", slabChunk, got)
	}
	push := func() {
		if !s.Push(switchnet.Flow{In: 1, Out: 2, Demand: 1}) {
			t.Fatal("push rejected before close")
		}
		dst = s.PullBatch(dst[:0], round, slabChunk)
		round++
	}
	if got := testing.AllocsPerRun(100, push); got != 0 {
		t.Errorf("warm Push + PullBatch: %.1f allocations, want 0", got)
	}
}

// TestChanSourceSinglePushesShareSlabs: single-flow pushes coalesce into
// the tail slab, so 4,096 of them through a 4,096-flow feed hold 16 full
// slabs (17 at most), not one slab each, and a second pass through the
// drained feed reuses them. A consumer that finds the feed dry has handed
// every slab back, so the free list counts them all.
func TestChanSourceSinglePushesShareSlabs(t *testing.T) {
	const buf = 4096
	s := NewChanSource(buf)
	for pass := range 2 {
		for i := range buf {
			if !s.Push(switchnet.Flow{In: pass, Out: 0, Demand: i}) {
				t.Fatalf("pass %d: push %d rejected", pass, i)
			}
		}
		got := s.PullBatch(nil, pass, 2*buf)
		if len(got) != buf {
			t.Fatalf("pass %d: drained %d flows, want %d", pass, len(got), buf)
		}
		for i, f := range got {
			if f.In != pass || f.Demand != i {
				t.Fatalf("pass %d: flow %d = %+v", pass, i, f)
			}
		}
		if s.PullBatch(nil, pass, 1) != nil {
			t.Fatalf("pass %d: drained feed yielded a flow", pass)
		}
		if n := len(s.free); n < buf/slabChunk || n > buf/slabChunk+1 {
			t.Fatalf("pass %d: the drained feed holds %d slabs, want %d or %d",
				pass, n, buf/slabChunk, buf/slabChunk+1)
		}
	}
}

// TestChanSourceSlowConsumerSlabBound: behind a consumer slower than its
// producer, the source still owns at most ⌈buf/slabChunk⌉ + 2 slabs. A
// producer tops the feed up to its bound before every read by the
// consumer, so the queue is full each time the consumer takes it. Its
// batches are single flows, chunks that straddle slabs and whole slabs,
// none longer than a chunk, so a top-up never blocks; the reads fall
// within a slab and across several. Every slab the source ever allocated
// is on the free list once the feed has drained dry.
func TestChanSourceSlowConsumerSlabBound(t *testing.T) {
	const buf, flows = 4096, 1 << 15
	for _, batch := range []int{1, 100, slabChunk} {
		for _, read := range []int{1, 37, slabChunk + 1, 1000} {
			s := NewChanSource(buf)
			pushed, drained := 0, 0
			var dst []switchnet.Flow
			for drained < flows {
				for pushed < flows && s.Buffered() < buf {
					n := min(batch, flows-pushed)
					if _, err := s.PushBatch(context.Background(), numbered(0, 0, n)); err != nil {
						t.Fatal(err)
					}
					pushed += n
				}
				dst = s.PullBatch(dst[:0], 0, read)
				drained += len(dst)
			}
			if s.PullBatch(nil, 0, 1) != nil {
				t.Fatal("drained feed yielded a flow")
			}
			if n, limit := len(s.free), (buf+slabChunk-1)/slabChunk+2; n > limit {
				t.Fatalf("batches of %d, reads of %d: the source allocated %d slabs for a %d-flow buffer, want at most %d",
					batch, read, n, buf, limit)
			}
		}
	}
}
