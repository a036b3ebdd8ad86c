package workload

import "flowsched/internal/switchnet"

// Limit caps a source at a fixed number of flows: after Max flows
// have been yielded the stream reports a clean end, regardless of what
// the wrapped source still holds. flowsim uses it to honor -flows as a
// drain cap on trace replays.
type Limit struct {
	src       FlowSource
	remaining int64
}

// NewLimit wraps src so at most max flows are yielded (max <= 0 yields
// none).
func NewLimit(src FlowSource, max int64) *Limit {
	if max < 0 {
		max = 0
	}
	return &Limit{src: src, remaining: max}
}

// Next implements FlowSource.
func (s *Limit) Next() (switchnet.Flow, bool) {
	if s.remaining <= 0 {
		return switchnet.Flow{}, false
	}
	f, ok := s.src.Next()
	if ok {
		s.remaining--
	}
	return f, ok
}

// PullBatch implements FlowSource.
func (s *Limit) PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow {
	if s.remaining <= 0 {
		return dst
	}
	if int64(max) > s.remaining {
		max = int(s.remaining)
	}
	before := len(dst)
	dst = s.src.PullBatch(dst, round, max)
	s.remaining -= int64(len(dst) - before)
	return dst
}

// Err implements FlowSource, surfacing the wrapped source's error: a
// capped-off stream still reports how its underlying reader failed.
func (s *Limit) Err() error { return s.src.Err() }

// Skip discards the first n flows of src in place, through Next, stopping
// early if the stream ends. It resumes a replayable, from-the-beginning
// source (ArrivalSource, TraceSource, InstanceSource) past a checkpoint's
// consumed point (stream.CheckpointState.SourceFlows); such sources never
// block in Next. A live feed needs no skip: it resumes empty.
func Skip(src FlowSource, n int64) {
	for ; n > 0; n-- {
		if _, ok := src.Next(); !ok {
			return
		}
	}
}
