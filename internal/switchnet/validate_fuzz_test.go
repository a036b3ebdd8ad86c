package switchnet

import (
	"fmt"
	"testing"
)

// validateFlowRule is the admissibility rule as ValidateFlow stated it
// before Admits split out its accept path: the clauses in order, each
// rejection with its message. FuzzValidateFlow holds the split to it.
func validateFlowRule(s Switch, e Flow) error {
	if e.In < 0 || e.In >= s.NumIn() {
		return fmt.Errorf("input port %d out of range [0,%d)", e.In, s.NumIn())
	}
	if e.Out < 0 || e.Out >= s.NumOut() {
		return fmt.Errorf("output port %d out of range [0,%d)", e.Out, s.NumOut())
	}
	if e.Demand <= 0 {
		return fmt.Errorf("demand %d is not positive", e.Demand)
	}
	if e.Release < 0 {
		return fmt.Errorf("release %d is negative", e.Release)
	}
	kappa := s.InCaps[e.In]
	if c := s.OutCaps[e.Out]; c < kappa {
		kappa = c
	}
	if e.Demand > kappa {
		return fmt.Errorf("demand %d exceeds kappa=%d (min port capacity)", e.Demand, kappa)
	}
	return nil
}

// FuzzValidateFlow: on arbitrary ports, demands, releases and port
// capacities (the switch's inputs and outputs each get a capacity that
// varies by port), Admits accepts exactly the flows the full rule
// accepts, and ValidateFlow rejects the rest with the rule's message,
// word for word.
func FuzzValidateFlow(f *testing.F) {
	f.Add(uint8(2), uint8(3), 4, 3, 0, 2, 1, 2, 0)      // admissible
	f.Add(uint8(2), uint8(3), 4, 3, -1, 2, 1, 2, 0)     // input below range
	f.Add(uint8(2), uint8(3), 4, 3, 2, 2, 1, 2, 0)      // input at NumIn
	f.Add(uint8(2), uint8(3), 4, 3, 1, 3, 1, 2, 0)      // output at NumOut
	f.Add(uint8(2), uint8(3), 4, 3, 1, 0, 0, 2, 0)      // zero demand
	f.Add(uint8(2), uint8(3), 4, 3, 1, 0, 1, -5, 0)     // negative release
	f.Add(uint8(2), uint8(3), 4, 3, 1, 0, 4, 0, 0)      // demand over the output's cap
	f.Add(uint8(2), uint8(3), 2, 9, 1, 0, 3, 0, 0)      // demand over the input's cap
	f.Add(uint8(0), uint8(0), 1, 1, 0, 0, 1, 0, 0)      // empty switch
	f.Add(uint8(1), uint8(1), 1, 1, -1<<63, 0, 1, 0, 0) // most negative port
	f.Fuzz(func(t *testing.T, nIn, nOut uint8, inCap, outCap, in, out, demand, release, skew int) {
		sw := Switch{InCaps: make([]int, nIn%8), OutCaps: make([]int, nOut%8)}
		for i := range sw.InCaps {
			sw.InCaps[i] = inCap + i*skew
		}
		for j := range sw.OutCaps {
			sw.OutCaps[j] = outCap - j*skew
		}
		e := Flow{In: in, Out: out, Demand: demand, Release: release}
		want := validateFlowRule(sw, e)
		if got := sw.Admits(&e); got != (want == nil) {
			t.Fatalf("Admits(%+v) on caps %v/%v = %v; the rule says %v", e, sw.InCaps, sw.OutCaps, got, want)
		}
		got := sw.ValidateFlow(e)
		switch {
		case (got == nil) != (want == nil):
			t.Fatalf("ValidateFlow(%+v) on caps %v/%v = %v; the rule says %v", e, sw.InCaps, sw.OutCaps, got, want)
		case got != nil && got.Error() != want.Error():
			t.Fatalf("ValidateFlow(%+v) rejects with %q; the rule's message is %q", e, got, want)
		}
	})
}
