package workload

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"flowsched/internal/switchnet"
)

// slabChunk is the most flows one slab carries: PushBatch cuts a longer
// batch into sub-slices of this length, so the feed overshoots its bound
// by less than one chunk however large the batch is.
const slabChunk = 256

// ErrSourceClosed is what PushBatch reports once Close has ended the feed.
var ErrSourceClosed = errors.New("workload: ChanSource closed")

// ChanSource adapts a concurrently-fed queue of flows into a streaming
// source: producers PushBatch (or Push) from any number of goroutines (a
// network ingest path, typically) while a single consumer — the runtime —
// drains them. It is the live reading of the source contract: PullBatch
// hands over what is buffered and never blocks, Next blocks until a flow
// arrives or the source is closed and drained, and Park is Next with a
// wake channel, which is where an idle runtime waits.
//
// The feed carries slabs, not flows: a pushed slice is queued as it is,
// in sub-slices of at most slabChunk flows, and the consumer reads the
// flows out of it through a cursor. Nothing is copied on the way in, so
// a pushed slice belongs to the source from the call on — the caller must
// not write to it or reuse it, whatever PushBatch returns. One
// synchronisation per slab on each side replaces one per flow. Slabs of
// concurrent producers interleave whole: a batch's flows come out in
// order, and each slab of it contiguously.
//
// The bound is on flows, not slabs: a slab is queued only while fewer
// than buf flows are buffered (pushed and not yet handed to the
// consumer), so at most buf-1 flows plus one slab ever are. A batch
// longer than buf is therefore delivered piecewise as the consumer makes
// room, never refused and never deadlocked.
//
// Release rounds are assigned by the source, not the producers: scheduler
// time is virtual (rounds advance as fast as the round loop spins, and
// freeze while it is parked), so a producer cannot know the current
// round. Each flow is stamped as it is handed to the consumer with the
// latest round the runtime has announced through PullBatch, clamped to
// keep releases non-decreasing; any Release a producer set is overwritten.
type ChanSource struct {
	buf  int64
	done chan struct{}

	// mu guards the producer side of the queue. buffered is written under
	// it by producers and without it by the consumer, which only lowers it:
	// a producer's room check under mu errs towards waiting.
	mu       sync.Mutex
	closed   bool
	queued   [][]switchnet.Flow
	buffered atomic.Int64

	// ready tells a parked consumer a slab was queued; space tells a parked
	// producer room appeared. One-slot and lossy: a token is a hint to look
	// again, and a producer that leaves room behind passes it on.
	ready chan struct{}
	space chan struct{}

	// Consumer-side state, touched only by the runtime's goroutine: the
	// slabs taken off the queue in one swap, the next one to open, and what
	// is left of the open one.
	taken     [][]switchnet.Flow
	next      int
	cur       []switchnet.Flow
	lastRound int
	lastRel   int
}

// NewChanSource returns a live source whose feed buffers up to buf pushed
// flows (minimum 1), plus at most one slab of slack.
func NewChanSource(buf int) *ChanSource {
	if buf < 1 {
		buf = 1
	}
	return &ChanSource{
		buf:   int64(buf),
		done:  make(chan struct{}),
		ready: make(chan struct{}, 1),
		space: make(chan struct{}, 1),
	}
}

// PushBatch feeds flows in order, blocking while the buffer is full, and
// takes ownership of the slice. A blocked call gives up when ctx is done
// or the source is closed; delivered then says exactly how many leading
// flows were queued (they will be drained; the rest never will). ctx is
// consulted only while blocked. Safe for concurrent use.
func (s *ChanSource) PushBatch(ctx context.Context, flows []switchnet.Flow) (delivered int, err error) {
	for delivered < len(flows) {
		end := min(delivered+slabChunk, len(flows))
		if err := s.pushSlab(ctx, flows[delivered:end:end]); err != nil {
			return delivered, err
		}
		delivered = end
	}
	return delivered, nil
}

// Push feeds one flow, blocking while the buffer is full. It returns
// false — without delivering — once the source is closed. Safe for
// concurrent use.
func (s *ChanSource) Push(f switchnet.Flow) bool {
	_, err := s.PushBatch(context.Background(), []switchnet.Flow{f})
	return err == nil
}

// pushSlab queues one non-empty slab once there is room for it.
func (s *ChanSource) pushSlab(ctx context.Context, slab []switchnet.Flow) error {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrSourceClosed
		}
		if s.buffered.Load() < s.buf {
			s.queued = append(s.queued, slab)
			room := s.buffered.Add(int64(len(slab))) < s.buf
			s.mu.Unlock()
			hint(s.ready)
			if room {
				hint(s.space)
			}
			return nil
		}
		s.mu.Unlock()
		select {
		case <-s.space:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.done:
			return ErrSourceClosed
		}
	}
}

// hint leaves a token in a one-slot channel unless one is already there.
func hint(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// Close ends the feed: pending buffered flows are still drained, then the
// stream reports a clean end. Idempotent and safe to call concurrently
// with Push and PushBatch.
func (s *ChanSource) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		// closed is set before done is closed, both under mu: whoever sees
		// done closed also sees every slab that will ever be queued.
		s.closed = true
		close(s.done)
	}
}

// Buffered reports how many pushed flows have not been handed to the
// consumer yet. Safe for concurrent use.
func (s *ChanSource) Buffered() int { return int(s.buffered.Load()) }

// open makes cur the next non-empty slab; false means nothing is queued.
func (s *ChanSource) open() bool {
	if len(s.cur) > 0 {
		return true
	}
	if s.next == len(s.taken) {
		if s.buffered.Load() == 0 {
			return false
		}
		s.mu.Lock()
		s.taken, s.queued = s.queued, s.taken[:0]
		s.mu.Unlock()
		s.next = 0
	}
	s.cur, s.taken[s.next] = s.taken[s.next], nil
	s.next++
	return true
}

// handed stamps the flows just handed to the consumer — release is the
// latest round announced via PullBatch, clamped non-decreasing — and
// returns their room to the producers, who can only be parked if this
// is what takes the feed back under its bound.
func (s *ChanSource) handed(out []switchnet.Flow) {
	rel := max(s.lastRound, s.lastRel)
	s.lastRel = rel
	for i := range out {
		out[i].Release = rel
	}
	n := int64(len(out))
	if left := s.buffered.Add(-n); left < s.buf && left+n >= s.buf {
		hint(s.space)
	}
}

// Next implements FlowSource: it blocks until a flow is pushed or the
// source is closed and drained.
func (s *ChanSource) Next() (switchnet.Flow, bool) {
	f, ok, _ := s.Park(nil)
	return f, ok
}

// PullBatch implements FlowSource without ever blocking: it drains
// at most max immediately-available flows, across slab boundaries,
// stamped with the given round.
func (s *ChanSource) PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow {
	if round > s.lastRound {
		s.lastRound = round
	}
	for max > 0 && s.open() {
		n := min(max, len(s.cur))
		dst = append(dst, s.cur[:n]...)
		s.handed(dst[len(dst)-n:])
		s.cur = s.cur[n:]
		max -= n
	}
	return dst
}

// Park is the stream runtime's interruptible idle wait (stream.Parker):
// it blocks like Next but also returns when wake receives, so an idle
// runtime can be unparked to serve its mailbox (pending snapshots,
// checkpoints, reloads) or a Stop while the feed is quiet. woke=true
// means no flow was consumed. The rest of the returned flow's slab stays
// queued for PullBatch.
func (s *ChanSource) Park(wake <-chan struct{}) (f switchnet.Flow, ok, woke bool) {
	for !s.open() {
		select {
		case <-s.ready:
		case <-wake:
			return switchnet.Flow{}, false, true
		case <-s.done:
			if !s.open() {
				return switchnet.Flow{}, false, false
			}
		}
	}
	out := [1]switchnet.Flow{s.cur[0]}
	s.cur = s.cur[1:]
	s.handed(out[:])
	return out[0], true, false
}

// Err implements FlowSource: a closed feed is always a clean end.
func (s *ChanSource) Err() error { return nil }
