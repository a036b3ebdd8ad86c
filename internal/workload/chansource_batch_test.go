package workload

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"flowsched/internal/switchnet"
)

// numbered returns n flows a test can tell apart and order: In names the
// producer, Out the batch, Demand the position in the batch.
func numbered(producer, batch, n int) []switchnet.Flow {
	out := make([]switchnet.Flow, n)
	for i := range out {
		out[i] = switchnet.Flow{In: producer, Out: batch, Demand: i}
	}
	return out
}

// awaitBuffered spins until the feed holds n flows.
func awaitBuffered(t *testing.T, s *ChanSource, n int) {
	t.Helper()
	for s.Buffered() != n {
		if s.Buffered() > n {
			t.Fatalf("feed holds %d flows, waiting for %d", s.Buffered(), n)
		}
		runtime.Gosched()
	}
}

// drainAll pulls until the closed feed ends, in calls of at most max.
func drainAll(t *testing.T, s *ChanSource, max int) []switchnet.Flow {
	t.Helper()
	var got []switchnet.Flow
	for round := 0; ; round++ {
		before := len(got)
		got = s.PullBatch(got, round, max)
		if len(got)-before > max {
			t.Fatalf("PullBatch(max=%d) yielded %d flows", max, len(got)-before)
		}
		if len(got) == before {
			f, ok := s.Next()
			if !ok {
				return got
			}
			got = append(got, f)
		}
	}
}

// TestChanSourceBatchesInterleaveWhole: concurrent producers' batches may
// interleave, but only at slab boundaries — every batch comes out in
// order, and each slabChunk-aligned run of it comes out contiguously.
func TestChanSourceBatchesInterleaveWhole(t *testing.T) {
	s := NewChanSource(2 * slabChunk)
	const producers, batches, per = 2, 40, 2*slabChunk + 37
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if n, err := s.PushBatch(context.Background(), numbered(p, b, per)); n != per || err != nil {
					t.Errorf("producer %d batch %d: delivered %d, %v", p, b, n, err)
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		s.Close()
	}()
	got := drainAll(t, s, 100) // 100 divides neither chunk nor batch
	if len(got) != producers*batches*per {
		t.Fatalf("drained %d flows, want %d", len(got), producers*batches*per)
	}
	type pos struct{ batch, i int }
	var at [producers]pos
	for k, f := range got {
		p := &at[f.In]
		if f.Out != p.batch || f.Demand != p.i {
			t.Fatalf("flow %d: producer %d yielded batch %d flow %d, want batch %d flow %d",
				k, f.In, f.Out, f.Demand, p.batch, p.i)
		}
		if f.Demand%slabChunk != 0 && got[k-1].In != f.In {
			t.Fatalf("flow %d: producer %d's slab was split by producer %d", k, f.In, got[k-1].In)
		}
		if p.i++; p.i == per {
			p.batch, p.i = p.batch+1, 0
		}
	}
}

// TestChanSourceBoundsFlowsNotBatches: room is counted in flows. Two
// 3-flow batches fit a 4-flow feed (the second is the one slab of
// slack); a third must wait however few slabs are queued.
func TestChanSourceBoundsFlowsNotBatches(t *testing.T) {
	s := NewChanSource(4)
	for b := 0; b < 2; b++ {
		if n, err := s.PushBatch(context.Background(), numbered(0, b, 3)); n != 3 || err != nil {
			t.Fatalf("batch %d: delivered %d, %v", b, n, err)
		}
	}
	// Whether the cancel lands before or after the push parks, a push that
	// finds no room delivers nothing; one that found room would deliver 3.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if n, err := s.PushBatch(ctx, numbered(0, 2, 3)); n != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("push into a full feed: delivered %d, %v; want 0, context.Canceled", n, err)
	}
	if s.Buffered() != 6 {
		t.Fatalf("feed holds %d flows, want 6", s.Buffered())
	}
	// One flow handed out leaves 5 >= 4: still full. Three leave 3: room.
	s.PullBatch(nil, 0, 1)
	if n, _ := s.PushBatch(ctx, numbered(0, 2, 3)); n != 0 {
		t.Fatalf("push at 5 of 4 buffered delivered %d", n)
	}
	s.PullBatch(nil, 0, 2)
	if n, err := s.PushBatch(ctx, numbered(0, 2, 3)); n != 3 || err != nil {
		t.Fatalf("push at 3 of 4 buffered: delivered %d, %v", n, err)
	}
}

// TestChanSourceOversizeBatchDelivered: a batch far longer than the
// buffer goes through piecewise as the consumer makes room.
func TestChanSourceOversizeBatchDelivered(t *testing.T) {
	s := NewChanSource(4)
	const n = 5*slabChunk + 1
	go func() {
		if d, err := s.PushBatch(context.Background(), numbered(0, 0, n)); d != n || err != nil {
			t.Errorf("delivered %d of %d, %v", d, n, err)
		}
		s.Close()
	}()
	got := drainAll(t, s, 7)
	if len(got) != n {
		t.Fatalf("drained %d flows, want %d", len(got), n)
	}
	for i, f := range got {
		if f.Demand != i {
			t.Fatalf("flow %d out of order: %+v", i, f)
		}
	}
}

// TestChanSourceParkedPushGivesUp: a PushBatch parked on a full feed
// returns when its context is cancelled or the source closes, reports
// exactly what it had queued, and that — no more, no less — is drained.
func TestChanSourceParkedPushGivesUp(t *testing.T) {
	const n = 2*slabChunk + 5
	type result struct {
		delivered int
		err       error
	}
	for _, tc := range []struct {
		name   string
		giveUp func(s *ChanSource, cancel context.CancelFunc)
		want   error
	}{
		{"context", func(_ *ChanSource, cancel context.CancelFunc) { cancel() }, context.Canceled},
		{"close", func(s *ChanSource, _ context.CancelFunc) { s.Close() }, ErrSourceClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewChanSource(2)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan result)
			go func() {
				d, err := s.PushBatch(ctx, numbered(0, 0, n))
				done <- result{d, err}
			}()
			// The first slab finds an empty feed; the second cannot follow.
			awaitBuffered(t, s, slabChunk)
			tc.giveUp(s, cancel)
			if r := <-done; r.delivered != slabChunk || !errors.Is(r.err, tc.want) {
				t.Fatalf("parked push returned %d, %v; want %d, %v", r.delivered, r.err, slabChunk, tc.want)
			}
			s.Close()
			got := drainAll(t, s, 1000)
			if len(got) != slabChunk {
				t.Fatalf("drained %d flows, want the %d delivered", len(got), slabChunk)
			}
			for i, f := range got {
				if f.Demand != i {
					t.Fatalf("flow %d out of order: %+v", i, f)
				}
			}
		})
	}
}

// TestChanSourceParkLeavesSlabToPullBatch: Park consumes one flow; the
// rest of its slab is PullBatch's, which honours max across slabs.
func TestChanSourceParkLeavesSlabToPullBatch(t *testing.T) {
	s := NewChanSource(16)
	s.PushBatch(context.Background(), numbered(0, 0, 3))
	s.PushBatch(context.Background(), numbered(0, 1, 4))
	f, ok, woke := s.Park(nil)
	if !ok || woke || f.Out != 0 || f.Demand != 0 {
		t.Fatalf("Park = %+v, %v, %v; want the first flow of the first slab", f, ok, woke)
	}
	got := s.PullBatch(nil, 3, 4)
	want := []switchnet.Flow{
		{In: 0, Out: 0, Demand: 1, Release: 3}, {In: 0, Out: 0, Demand: 2, Release: 3},
		{In: 0, Out: 1, Demand: 0, Release: 3}, {In: 0, Out: 1, Demand: 1, Release: 3},
	}
	if len(got) != len(want) {
		t.Fatalf("PullBatch(max=4) yielded %d flows: %+v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flow %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got := s.PullBatch(nil, 3, 10); len(got) != 2 || got[0].Demand != 2 || got[1].Demand != 3 {
		t.Fatalf("rest of the second slab = %+v", got)
	}
	if s.Buffered() != 0 {
		t.Fatalf("drained feed reports %d buffered", s.Buffered())
	}
}
