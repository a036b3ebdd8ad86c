package workload

import (
	"flowsched/internal/switchnet"
)

// CheckpointSource replays a checkpointed flow prefix — the pending set
// (plus lookahead) a stream.CheckpointState captured, with original
// releases intact — and then hands over to an underlying source for the
// rest of the stream. It is the restore half of checkpoint/restore: the
// runtime re-admits the prefix as its first arrivals (Config.Resume
// keeps them from being re-counted), and the tail continues the feed.
//
// The prefix must be in the checkpoint's order (admission order, so
// releases are non-decreasing along it) and the tail must resume past
// the checkpoint's consumed point — Skip wraps a deterministic source
// that replays from the beginning, and a live ChanSource simply starts
// empty. Every tail release must be >= the last prefix release, or the
// runtime rejects the stream (releases non-decreasing); a live tail
// satisfies this automatically because it stamps releases at the
// current round, which a restored runtime opens at the resume round.
//
// The wrapper always offers Park: an unreplayed prefix flow answers it
// at once, and past the prefix it is the tail's Park when the tail has
// one (so a restored daemon still parks interruptibly on its ingest
// queue) and the tail's Next when it does not — a tail without Park is a
// finite replay whose Next does not wait.
type CheckpointSource struct {
	prefix []switchnet.Flow
	at     int
	tail   FlowSource
}

// NewCheckpointSource returns a source that yields prefix (unmodified,
// in order) and then everything tail yields. The prefix slice is
// retained, not copied.
func NewCheckpointSource(prefix []switchnet.Flow, tail FlowSource) *CheckpointSource {
	return &CheckpointSource{prefix: prefix, tail: tail}
}

// Remaining reports how many prefix flows have not been replayed yet.
func (s *CheckpointSource) Remaining() int { return len(s.prefix) - s.at }

// Next implements FlowSource: prefix first, then the tail.
func (s *CheckpointSource) Next() (switchnet.Flow, bool) {
	if s.at < len(s.prefix) {
		f := s.prefix[s.at]
		s.at++
		return f, true
	}
	return s.tail.Next()
}

// PullBatch implements FlowSource: it drains prefix flows released
// at or before round, then delegates leftover capacity to the tail.
func (s *CheckpointSource) PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow {
	n := 0
	for s.at < len(s.prefix) && n < max && s.prefix[s.at].Release <= round {
		dst = append(dst, s.prefix[s.at])
		s.at++
		n++
	}
	if s.at == len(s.prefix) && n < max {
		dst = s.tail.PullBatch(dst, round, max-n)
	}
	return dst
}

// Err reports the tail's failure; the prefix itself cannot fail.
func (s *CheckpointSource) Err() error { return s.tail.Err() }

// Park is the stream runtime's interruptible idle wait (stream.Parker)
// over the prefix and then the tail; see the type comment.
func (s *CheckpointSource) Park(wake <-chan struct{}) (f switchnet.Flow, ok, woke bool) {
	if p, live := s.tail.(parker); live && s.at == len(s.prefix) {
		return p.Park(wake)
	}
	f, ok = s.Next()
	return f, ok, false
}

// SkipSource discards the first n flows of an underlying source and then
// yields the rest. It resumes a deterministic, from-the-beginning source
// (ArrivalSource, TraceSource, InstanceSource) past a checkpoint's
// consumed point: stream.CheckpointState.SourceFlows says how many to
// skip.
type SkipSource struct {
	src     FlowSource
	left    int
	scratch []switchnet.Flow
}

// Skip returns src with its first n flows discarded (lazily, on first
// read).
func Skip(src FlowSource, n int) *SkipSource {
	if n < 0 {
		n = 0
	}
	return &SkipSource{src: src, left: n}
}

// discard burns through the remaining skip count.
func (s *SkipSource) discard() {
	for s.left > 0 {
		if _, ok := s.src.Next(); !ok {
			s.left = 0
			return
		}
		s.left--
	}
}

// Next implements FlowSource.
func (s *SkipSource) Next() (switchnet.Flow, bool) {
	s.discard()
	return s.src.Next()
}

// PullBatch implements FlowSource. The skipped flows are discarded
// through the same batch path, so it never blocks.
func (s *SkipSource) PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow {
	for s.left > 0 {
		want := s.left
		if want > 512 {
			want = 512
		}
		s.scratch = s.src.PullBatch(s.scratch[:0], round, want)
		s.left -= len(s.scratch)
		if len(s.scratch) < want {
			// The source has nothing more released at this round; the
			// remaining skip happens on a later call.
			return dst
		}
	}
	return s.src.PullBatch(dst, round, max)
}

// Err reports the underlying source's failure.
func (s *SkipSource) Err() error { return s.src.Err() }
