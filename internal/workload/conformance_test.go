package workload_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"flowsched/internal/faultinject"
	"flowsched/internal/stream"
	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// TestSourceConformance holds every Source of internal/workload and
// internal/faultinject to the contract the runtime's single admission
// pass relies on (stream.Source): PullBatch never yields a flow released
// after the round it was asked for, a short batch means the next Next is
// released later or the stream has ended, releases never decrease, and
// any interleaving of Next and PullBatch yields the sequence Next alone
// does — with the same Err at the end. The driver mimics the runtime: it
// pulls batches of varying size, takes a short batch as its cue to fetch
// the next flow with Next and jump the round to it, and mixes in bare
// Next calls and idle rounds. A live source (ChanSource) stamps releases
// from the rounds it is shown, so for it the sequence is compared without
// the Release field.
func TestSourceConformance(t *testing.T) {
	inst := workload.PoissonConfig{M: 4, T: 40, Ports: 5}.Generate(rand.New(rand.NewSource(8)))
	sw := inst.Switch
	finite := func() stream.Source { return workload.NewInstanceSource(inst) }
	var trace strings.Builder
	trace.WriteString("release,in,out,demand\n")
	for src := finite(); ; {
		f, ok := src.Next()
		if !ok {
			break
		}
		fmt.Fprintf(&trace, "%d,%d,%d,%d\n", f.Release, f.In, f.Out, f.Demand)
	}
	fed := func() *workload.ChanSource {
		ch := workload.NewChanSource(inst.N())
		for _, f := range inst.Flows {
			ch.Push(f)
		}
		ch.Close()
		return ch
	}
	injected := errors.New("injected")
	cases := []struct {
		name string
		live bool
		mk   func() stream.Source
	}{
		{"Arrival", false, func() stream.Source {
			return workload.NewArrivalSource(workload.ArrivalConfig{Ports: 6, M: 2.5, MaxFlows: 300}, rand.New(rand.NewSource(3)))
		}},
		{"Trace", false, func() stream.Source { return workload.NewTraceSource(strings.NewReader(trace.String()), sw) }},
		{"Instance", false, finite},
		{"Churn", false, func() stream.Source {
			return workload.NewChurnSource(workload.ChurnConfig{Ins: 3, Outs: 4, HotOuts: 1, MaxFlows: 200}, rand.New(rand.NewSource(5)))
		}},
		{"Chan", true, func() stream.Source { return fed() }},
		{"Limit", false, func() stream.Source {
			return workload.NewLimit(workload.NewArrivalSource(workload.ArrivalConfig{Ports: 4, M: 3}, rand.New(rand.NewSource(9))), 150)
		}},
		{"Skip", false, func() stream.Source {
			src := finite()
			workload.Skip(src, 17)
			return src
		}},
		{"Hiccup", false, func() stream.Source { return faultinject.NewHiccupSource(finite(), 0xC0FFEE, 0.1, 2, 9) }},
		{"Error", false, func() stream.Source { return faultinject.NewErrorSource(finite(), 41, injected) }},
		{"Jump", false, func() stream.Source { return faultinject.NewJumpSource(finite(), 60, 500) }},
	}
	same := func(a, b switchnet.Flow, live bool) bool {
		if live {
			a.Release, b.Release = 0, 0
		}
		return a == b
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.mk()
			var want []switchnet.Flow
			for {
				f, ok := ref.Next()
				if !ok {
					break
				}
				want = append(want, f)
			}
			if len(want) == 0 {
				t.Fatal("reference run yielded nothing")
			}
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				src := tc.mk()
				var got, buf []switchnet.Flow
				round, ended := 0, false
				next := func() {
					f, ok := src.Next()
					if !ok {
						ended = true
						return
					}
					got = append(got, f)
					round = max(round, f.Release)
				}
				for !ended {
					switch rng.Intn(4) {
					case 0:
						next()
					case 1:
						round++
					default:
						n := 1 + rng.Intn(9)
						buf = src.PullBatch(buf[:0], round, n)
						for _, f := range buf {
							if f.Release > round {
								t.Fatalf("seed %d: batch at round %d holds release %d", seed, round, f.Release)
							}
						}
						got = append(got, buf...)
						if len(buf) > n {
							t.Fatalf("seed %d: batch of %d exceeds max %d", seed, len(buf), n)
						}
						if len(buf) < n {
							at := round
							if next(); !ended && got[len(got)-1].Release <= at {
								t.Fatalf("seed %d: short batch at round %d, yet Next yields release %d",
									seed, at, got[len(got)-1].Release)
							}
						}
					}
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d: interleaved run yielded %d flows, Next alone %d", seed, len(got), len(want))
				}
				for k := range want {
					if !same(got[k], want[k], tc.live) {
						t.Fatalf("seed %d: flow %d is %+v, Next alone yields %+v", seed, k, got[k], want[k])
					}
					if k > 0 && got[k].Release < got[k-1].Release {
						t.Fatalf("seed %d: release %d after %d at flow %d", seed, got[k].Release, got[k-1].Release, k)
					}
				}
				if (src.Err() == nil) != (ref.Err() == nil) {
					t.Fatalf("seed %d: Err %v, Next alone ends with %v", seed, src.Err(), ref.Err())
				}
			}
		})
	}
}
