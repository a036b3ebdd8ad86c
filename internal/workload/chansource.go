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
// The feed carries slabs, not flows: PushBatch copies a batch, in chunks
// of at most slabChunk flows, into slabs of slabChunk flows the source
// owns, and the consumer reads the flows out of a slab through a cursor.
// The caller keeps its slice and may reuse it as soon as the call
// returns, whatever it returned. A chunk fills the spare room of the
// queued tail slab first and spills into a slab from the source's free
// list, which is allocated only when that list is empty; the consumer
// hands each slab back to the list as it finishes reading it. One
// synchronisation per chunk on the producer side, and one per slab on
// the consumer's, replace one per flow. Chunks of concurrent producers
// interleave whole: a batch's flows come out in order, and each chunk of
// it contiguously.
//
// The bound is on flows, not slabs: a chunk is queued only while fewer
// than buf flows are buffered (pushed and not yet handed to the
// consumer), so at most buf-1 flows plus one chunk ever are. A batch
// longer than buf is therefore delivered piecewise as the consumer makes
// room, never refused and never deadlocked. Coalescing into the tail
// keeps every queued slab but the last full, and the consumer takes a
// partly filled tail off the queue only when it is all the queue holds,
// so the slabs it has taken are full, or one alone. Every slab the
// source owns is free or holds buffered flows, all full but the tail,
// the open slab and the one a chunk spills into: however slow the
// consumer, the source owns at most ⌈buf/slabChunk⌉ + 2 slabs.
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

	// mu guards the producer side of the queue and the free list. Only
	// the last queued slab is ever written to again. buffered is written
	// under mu by producers and without it by the consumer, which only
	// lowers it: a producer's room check under mu errs towards waiting.
	mu       sync.Mutex
	closed   bool
	queued   [][]switchnet.Flow
	free     [][]switchnet.Flow
	buffered atomic.Int64

	// ready tells a parked consumer a chunk was queued; space tells a parked
	// producer room appeared. One-slot and lossy: a token is a hint to look
	// again, and a producer that leaves room behind passes it on.
	ready chan struct{}
	space chan struct{}

	// Consumer-side state, touched only by the runtime's goroutine: the
	// slabs taken off the queue in one swap, the next one to open, and
	// the open one and what is left of it.
	taken     [][]switchnet.Flow
	next      int
	slab      []switchnet.Flow
	cur       []switchnet.Flow
	lastRound int
	lastRel   int
}

// NewChanSource returns a live source whose feed buffers up to buf pushed
// flows (minimum 1), plus at most one chunk of slack.
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

// PushBatch feeds a copy of flows in order, blocking while the buffer is
// full; the caller may reuse flows once it returns. A blocked call gives
// up when ctx is done or the source is closed; delivered then says
// exactly how many leading flows were queued (they will be drained; the
// rest never will). ctx is consulted only while blocked. On a warm feed
// — one whose free list holds a slab when the tail has no room — it
// allocates nothing. Safe for concurrent use.
func (s *ChanSource) PushBatch(ctx context.Context, flows []switchnet.Flow) (delivered int, err error) {
	for delivered < len(flows) {
		end := min(delivered+slabChunk, len(flows))
		if err := s.pushChunk(ctx, flows[delivered:end]); err != nil {
			return delivered, err
		}
		delivered = end
	}
	return delivered, nil
}

// Push feeds one flow, blocking while the buffer is full. It returns
// false — without delivering — once the source is closed. It shares the
// tail slab with the flows queued before it, so single-flow pushes fill
// slabs as batches do. Safe for concurrent use.
func (s *ChanSource) Push(f switchnet.Flow) bool {
	one := [1]switchnet.Flow{f}
	_, err := s.PushBatch(context.Background(), one[:])
	return err == nil
}

// pushChunk queues a copy of one non-empty chunk of at most slabChunk
// flows once there is room for it.
func (s *ChanSource) pushChunk(ctx context.Context, chunk []switchnet.Flow) error {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrSourceClosed
		}
		if s.buffered.Load() < s.buf {
			s.enqueue(chunk)
			room := s.buffered.Add(int64(len(chunk))) < s.buf
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

// enqueue copies chunk, under mu, into the tail slab's spare room and
// spills the rest into a slab off the free list, or a new one when the
// list is empty. Both parts are queued in the one hold of mu, so the
// chunk comes out whole.
func (s *ChanSource) enqueue(chunk []switchnet.Flow) {
	if n := len(s.queued); n > 0 {
		tail := s.queued[n-1]
		k := min(len(chunk), cap(tail)-len(tail))
		s.queued[n-1] = append(tail, chunk[:k]...)
		chunk = chunk[k:]
	}
	if len(chunk) == 0 {
		return
	}
	var slab []switchnet.Flow
	if n := len(s.free); n > 0 {
		slab, s.free = s.free[n-1], s.free[:n-1]
	} else {
		slab = make([]switchnet.Flow, 0, slabChunk)
	}
	s.queued = append(s.queued, append(slab, chunk...))
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
// A swap leaves a partly filled tail on the queue for the producers to
// fill, unless it is all the queue holds.
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
		if n := len(s.taken); n > 1 && len(s.taken[n-1]) < slabChunk {
			s.queued = append(s.queued, s.taken[n-1])
			s.taken = s.taken[:n-1]
		}
		s.mu.Unlock()
		s.next = 0
		if len(s.taken) == 0 {
			return false
		}
	}
	s.slab, s.taken[s.next] = s.taken[s.next], nil
	s.cur = s.slab
	s.next++
	return true
}

// consume moves the read cursor past the first n flows of cur and hands
// the open slab back to the free list once it is read out: no producer
// writes to a slab once it has left the queue.
func (s *ChanSource) consume(n int) {
	if s.cur = s.cur[n:]; len(s.cur) == 0 {
		s.mu.Lock()
		s.free = append(s.free, s.slab[:0])
		s.mu.Unlock()
		s.slab = nil
	}
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
		s.consume(n)
		s.handed(dst[len(dst)-n:])
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
	s.consume(1)
	s.handed(out[:])
	return out[0], true, false
}

// Err implements FlowSource: a closed feed is always a clean end.
func (s *ChanSource) Err() error { return nil }
