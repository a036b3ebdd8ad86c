package workload

import (
	"testing"

	"flowsched/internal/switchnet"
)

// fixedSource replays a slice (test double for a recorded stream).
type fixedSource struct {
	flows []switchnet.Flow
	at    int
}

func (s *fixedSource) Next() (switchnet.Flow, bool) {
	if s.at >= len(s.flows) {
		return switchnet.Flow{}, false
	}
	f := s.flows[s.at]
	s.at++
	return f, true
}

func (s *fixedSource) PullBatch(dst []switchnet.Flow, round, max int) []switchnet.Flow {
	for n := 0; n < max && s.at < len(s.flows) && s.flows[s.at].Release <= round; n++ {
		dst = append(dst, s.flows[s.at])
		s.at++
	}
	return dst
}

func (s *fixedSource) Err() error { return nil }

func seqFlows(n, startRel int) []switchnet.Flow {
	out := make([]switchnet.Flow, n)
	for i := range out {
		out[i] = switchnet.Flow{In: i % 3, Out: (i + 1) % 3, Demand: 1, Release: startRel + i}
	}
	return out
}

// TestSkipSource pins the resume offset: Skip leaves the source at the
// first unskipped flow for both read paths.
func TestSkipSource(t *testing.T) {
	flows := seqFlows(10, 0)
	t.Run("Next", func(t *testing.T) {
		s := &fixedSource{flows: flows}
		Skip(s, 4)
		f, ok := s.Next()
		if !ok || f != flows[4] {
			t.Fatalf("first post-skip flow: %+v %v", f, ok)
		}
	})
	t.Run("PullBatch", func(t *testing.T) {
		s := &fixedSource{flows: flows}
		Skip(s, 4)
		got := s.PullBatch(nil, 100, 3)
		if len(got) != 3 || got[0] != flows[4] {
			t.Fatalf("post-skip batch: %+v", got)
		}
	})
	t.Run("skip respects release gating", func(t *testing.T) {
		// Skipping 4 flows whose releases are 0..3 discards them whatever
		// the round; what follows is still gated by release: flow 4 is not
		// available at round 1, and at round 10 it leads the batch.
		s := &fixedSource{flows: flows}
		Skip(s, 4)
		if got := s.PullBatch(nil, 1, 5); len(got) != 0 {
			t.Fatalf("round-1 batch yielded %+v before its release", got)
		}
		got := s.PullBatch(nil, 10, 5)
		if len(got) != 5 || got[0] != flows[4] {
			t.Fatalf("round-10 batch: %+v", got)
		}
	})
	t.Run("skip beyond end", func(t *testing.T) {
		s := &fixedSource{flows: flows}
		Skip(s, 99)
		if f, ok := s.Next(); ok {
			t.Fatalf("over-skip yielded %+v", f)
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("zero and negative skip", func(t *testing.T) {
		for _, n := range []int64{0, -3} {
			s := &fixedSource{flows: flows}
			Skip(s, n)
			if f, ok := s.Next(); !ok || f != flows[0] {
				t.Fatalf("skip %d first flow: %+v %v", n, f, ok)
			}
		}
	})
}
