package stream

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"flowsched/internal/switchnet"
	"flowsched/internal/workload"
)

// nextActiveVOQ returns the output port of the next non-empty VOQ at
// input in, at or after port from (0 <= from < NumOut) in circular port
// order, or -1 if the input has none: one probe per word of in's
// active-VOQ bitmap.
func nextActiveVOQ(v *View, in, from int) int {
	words := v.voqWords(in)
	w := from >> 6
	if masked := words[w] &^ (1<<uint(from&63) - 1); masked != 0 {
		return w<<6 + bits.TrailingZeros64(masked)
	}
	for i := w + 1; i < len(words); i++ {
		if words[i] != 0 {
			return i<<6 + bits.TrailingZeros64(words[i])
		}
	}
	for i := 0; i <= w; i++ {
		if words[i] != 0 {
			return i<<6 + bits.TrailingZeros64(words[i])
		}
	}
	return -1
}

// refRoundRobin is RoundRobin's pick as it stood before the sweep masked
// saturated outputs: it probes every active VOQ at an input with
// nextActiveVOQ in circular port order from the pointer's successor and
// drains each one until the input's capacity runs out, whatever capacity
// the VOQ's output has left. It is the reference the masked pick is held
// to.
type refRoundRobin struct{ rr []int }

func (*refRoundRobin) Name() string     { return "RoundRobin" }
func (*refRoundRobin) NewShard() Policy { return &refRoundRobin{} }

func (p *refRoundRobin) Reset(sw switchnet.Switch) {
	p.rr = make([]int, sw.NumIn())
	for i := range p.rr {
		p.rr[i] = -1
	}
}

func (p *refRoundRobin) exportScratch() []int64 {
	dst := make([]int64, len(p.rr))
	for i, r := range p.rr {
		dst[i] = int64(r)
	}
	return dst
}

func (p *refRoundRobin) Pick(v *View) {
	m := v.Switch().NumOut()
	for a := 0; a < v.NumActiveInputs(); a++ {
		in := v.ActiveInput(a)
		free := v.InputFree(in)
		if free <= 0 {
			continue
		}
		start := (p.rr[in] + 1 + m) % m
		// Strictly increasing circular distance from start detects the
		// wrap-around: every active VOQ has been visited.
		cur, prev := start, -1
		for free > 0 {
			out := nextActiveVOQ(v, in, cur)
			if out < 0 {
				break
			}
			d := (out - start + m) % m
			if d <= prev {
				break
			}
			prev = d
			var served bool
			if free, served = drainVOQ(v, in, out, free); served {
				p.rr[in] = out
			}
			if cur = out + 1; cur == m {
				cur = 0
			}
		}
	}
}

// TestRoundRobinMatchesUnmaskedReference drains the same flows through
// RoundRobin and refRoundRobin at K in {1, 2, 4} under lossless and
// deadline admission and requires the identical OnSchedule (seq, round)
// stream and, after the drain, the identical rotation pointers in every
// shard. Two inputs: unit flows at depth on a 130-port unit switch (three
// bitmap words, the last one partial), where outputs saturate partway
// through a round and the mask empties before the inputs do; and a
// multi-unit draw on a capacity-3 switch with two hot outputs, where a
// head whose demand exceeds what its output has left blocks its queue
// while the output stays in the mask.
func TestRoundRobinMatchesUnmaskedReference(t *testing.T) {
	unit := func() ([]switchnet.Flow, switchnet.Switch) {
		src := workload.NewArrivalSource(workload.ArrivalConfig{Ports: 130, Cap: 1, M: 260, MaxFlows: 40000},
			rand.New(rand.NewSource(1)))
		return drainSource(t, src), src.Switch()
	}
	hot := func() ([]switchnet.Flow, switchnet.Switch) {
		src := workload.NewChurnSource(workload.ChurnConfig{Ins: 70, Outs: 70, PerRound: 90, HotOuts: 2, MaxFlows: 30000},
			rand.New(rand.NewSource(5)))
		flows := drainSource(t, src)
		rng := rand.New(rand.NewSource(6))
		for i := range flows {
			flows[i].Demand = 1 + rng.Intn(3)
		}
		return flows, switchnet.NewSwitch(70, 70, 3)
	}
	for _, in := range []struct {
		name string
		gen  func() ([]switchnet.Flow, switchnet.Switch)
	}{{"unit_depth", unit}, {"cap3_hot", hot}} {
		flows, sw := in.gen()
		for _, K := range []int{1, 2, 4} {
			for _, mode := range []AdmitMode{AdmitLossless, AdmitDeadline} {
				t.Run(fmt.Sprintf("%s/K%d/%s", in.name, K, mode), func(t *testing.T) {
					cfg := Config{Switch: sw, Shards: K, MaxPending: 4096, Admit: mode}
					if mode == AdmitDeadline {
						cfg.Deadline = 24
					}
					gotSched, gotPtrs := drainRoundRobin(t, flows, cfg, &RoundRobin{})
					wantSched, wantPtrs := drainRoundRobin(t, flows, cfg, &refRoundRobin{})
					if i := firstDiff(gotSched, wantSched); i >= 0 {
						t.Fatalf("schedules diverge at pick %d of %d (reference %d): %v, reference %v",
							i, len(gotSched), len(wantSched), at(gotSched, i), at(wantSched, i))
					}
					for s := range wantPtrs {
						if !slices.Equal(gotPtrs[s], wantPtrs[s]) {
							t.Fatalf("shard %d rotation pointers after the drain: %v, reference %v", s, gotPtrs[s], wantPtrs[s])
						}
					}
				})
			}
		}
	}
}

// drainSource reads a finite source to its end.
func drainSource(t *testing.T, src Source) []switchnet.Flow {
	t.Helper()
	var flows []switchnet.Flow
	for f, ok := src.Next(); ok; f, ok = src.Next() {
		flows = append(flows, f)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	return flows
}

// drainRoundRobin runs flows to completion under pol and returns the
// (seq, round) pairs OnSchedule reported, in order, and each shard's
// rotation pointers afterwards.
func drainRoundRobin(t *testing.T, flows []switchnet.Flow, cfg Config, pol Policy) ([][2]int64, [][]int64) {
	t.Helper()
	var sched [][2]int64
	cfg.Policy = pol
	cfg.OnSchedule = func(seq int64, _ switchnet.Flow, round int) {
		sched = append(sched, [2]int64{seq, int64(round)})
	}
	rt, err := New(&sliceSource{flows: flows}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Pending != 0 || sum.Admitted != int64(len(flows)) {
		t.Fatalf("%s: drain incomplete: %+v", pol.Name(), sum)
	}
	if cfg.Admit == AdmitDeadline && sum.Expired == 0 {
		t.Fatalf("%s: deadline run expired nothing: %+v", pol.Name(), sum)
	}
	pols := rt.instances()
	ptrs := make([][]int64, len(pols))
	for s, p := range pols {
		ptrs[s] = p.(interface{ exportScratch() []int64 }).exportScratch()
	}
	return sched, ptrs
}

// firstDiff returns the first index where a and b differ, -1 if equal.
func firstDiff(a, b [][2]int64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// at returns s[i], or nothing past its end.
func at(s [][2]int64, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "nothing"
}
