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

// TestCheckpointSourceReplaysPrefixThenTail pins the restore stream
// order through both read paths.
func TestCheckpointSourceReplaysPrefixThenTail(t *testing.T) {
	prefix := seqFlows(3, 0)
	tail := seqFlows(4, 10)
	t.Run("Next", func(t *testing.T) {
		src := NewCheckpointSource(prefix, &fixedSource{flows: tail})
		var got []switchnet.Flow
		for {
			f, ok := src.Next()
			if !ok {
				break
			}
			got = append(got, f)
		}
		want := append(append([]switchnet.Flow(nil), prefix...), tail...)
		if len(got) != len(want) {
			t.Fatalf("got %d flows, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("flow %d: got %+v want %+v", i, got[i], want[i])
			}
		}
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("PullBatch", func(t *testing.T) {
		src := NewCheckpointSource(prefix, &fixedSource{flows: tail})
		if src.Remaining() != 3 {
			t.Fatalf("Remaining = %d, want 3", src.Remaining())
		}
		// Round 1 releases only the first two prefix flows.
		got := src.PullBatch(nil, 1, 100)
		if len(got) != 2 {
			t.Fatalf("round-1 batch drained %d flows, want 2", len(got))
		}
		// Round 20 releases everything: remaining prefix, then the tail in
		// the same call.
		got = src.PullBatch(got[:0], 20, 100)
		if len(got) != 1+4 {
			t.Fatalf("round-20 batch drained %d flows, want 5", len(got))
		}
		if got[0] != prefix[2] || got[1] != tail[0] {
			t.Fatalf("batch order wrong: %+v", got)
		}
		if src.Remaining() != 0 {
			t.Fatalf("Remaining = %d after drain", src.Remaining())
		}
	})
	t.Run("batch respects max across the seam", func(t *testing.T) {
		src := NewCheckpointSource(prefix, &fixedSource{flows: tail})
		got := src.PullBatch(nil, 20, 4)
		if len(got) != 4 {
			t.Fatalf("max=4 batch drained %d", len(got))
		}
	})
}

// TestCheckpointSourceLiveTail pins the Park passthrough over a
// ChanSource tail: prefix flows answer a park immediately, and a drained
// prefix forwards the park (wake included). Over a tail without Park the
// park is the tail's Next.
func TestCheckpointSourceLiveTail(t *testing.T) {
	ch := NewChanSource(4)
	src := NewCheckpointSource(seqFlows(1, 0), ch)
	wake := make(chan struct{}, 1)
	f, ok, woke := src.Park(wake)
	if !ok || woke || f.Release != 0 {
		t.Fatalf("prefix park = %+v %v %v", f, ok, woke)
	}
	// Prefix drained: a wake now interrupts the forwarded park.
	wake <- struct{}{}
	if _, ok, woke := src.Park(wake); ok || !woke {
		t.Fatalf("forwarded park ignored the wake: ok=%v woke=%v", ok, woke)
	}
	// And a pushed flow unparks it with a stamped release.
	ch.Push(switchnet.Flow{In: 2, Out: 0, Demand: 1})
	if f, ok, _ := src.Park(wake); !ok || f.In != 2 {
		t.Fatalf("forwarded park missed the pushed flow: %+v %v", f, ok)
	}
	wake <- struct{}{}
	if _, ok, woke := NewCheckpointSource(nil, &fixedSource{}).Park(wake); ok || woke {
		t.Fatalf("park over a drained finite tail: ok=%v woke=%v, want a clean end", ok, woke)
	}
}

// TestSkipSource pins the resume-offset wrapper.
func TestSkipSource(t *testing.T) {
	flows := seqFlows(10, 0)
	t.Run("Next", func(t *testing.T) {
		s := Skip(&fixedSource{flows: flows}, 4)
		f, ok := s.Next()
		if !ok || f != flows[4] {
			t.Fatalf("first post-skip flow: %+v %v", f, ok)
		}
	})
	t.Run("PullBatch", func(t *testing.T) {
		s := Skip(&fixedSource{flows: flows}, 4)
		got := s.PullBatch(nil, 100, 3)
		if len(got) != 3 || got[0] != flows[4] {
			t.Fatalf("post-skip batch: %+v", got)
		}
	})
	t.Run("skip respects release gating", func(t *testing.T) {
		// Skipping 4 flows whose releases are 0..3: at round 1 only two can
		// be discarded, so nothing is available yet; at round 10 the skip
		// completes and flow 4 is yielded.
		s := Skip(&fixedSource{flows: flows}, 4)
		if got := s.PullBatch(nil, 1, 5); len(got) != 0 {
			t.Fatalf("round-1 batch yielded %+v before the skip completed", got)
		}
		got := s.PullBatch(nil, 10, 5)
		if len(got) != 5 || got[0] != flows[4] {
			t.Fatalf("round-10 batch: %+v", got)
		}
	})
	t.Run("skip beyond end", func(t *testing.T) {
		s := Skip(&fixedSource{flows: flows}, 99)
		if f, ok := s.Next(); ok {
			t.Fatalf("over-skip yielded %+v", f)
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("zero and negative skip", func(t *testing.T) {
		for _, n := range []int{0, -3} {
			s := Skip(&fixedSource{flows: flows}, n)
			if f, ok := s.Next(); !ok || f != flows[0] {
				t.Fatalf("skip %d first flow: %+v %v", n, f, ok)
			}
		}
	})
}
