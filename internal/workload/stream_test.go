package workload

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"flowsched/internal/switchnet"
)

func TestArrivalSourceBasics(t *testing.T) {
	const n = 5000
	src := NewArrivalSource(ArrivalConfig{
		Ports: 8, Cap: 4, M: 3, MaxFlows: n, Alpha: 1.2, MinDemand: 1, MaxDemand: 4,
	}, rand.New(rand.NewSource(1)))
	lastRel := 0
	count := 0
	for {
		f, ok := src.Next()
		if !ok {
			break
		}
		count++
		if f.Release < lastRel {
			t.Fatalf("release %d after %d", f.Release, lastRel)
		}
		lastRel = f.Release
		if f.In < 0 || f.In >= 8 || f.Out < 0 || f.Out >= 8 {
			t.Fatalf("port out of range: %+v", f)
		}
		if f.Demand < 1 || f.Demand > 4 {
			t.Fatalf("demand %d outside [1,4]", f.Demand)
		}
	}
	if src.Err() != nil {
		t.Fatal(src.Err())
	}
	if count != n {
		t.Fatalf("yielded %d flows, want %d", count, n)
	}
}

// TestPullBatchMatchesNext: draining a source round by round through
// PullBatch must yield exactly the flow sequence Next yields, for every
// source kind — the batch path is an amortization, not a different
// stream. Also pins the horizon contract: a batch never contains a flow
// released after the requested round.
func TestPullBatchMatchesNext(t *testing.T) {
	mk := func() []FlowSource {
		inst := PoissonConfig{M: 4, T: 9, Ports: 5}.Generate(rand.New(rand.NewSource(8)))
		trace := "release,in,out,demand\n0,0,1,1\n0,2,3,1\n1,1,1,1\n4,3,0,1\n4,4,4,1\n9,0,0,1\n"
		return []FlowSource{
			NewArrivalSource(ArrivalConfig{Ports: 6, M: 2.5, MaxFlows: 400}, rand.New(rand.NewSource(3))),
			NewTraceSource(strings.NewReader(trace), switchnet.UnitSwitch(5)),
			NewInstanceSource(inst),
		}
	}
	ref := mk()
	alt := mk()
	for i := range ref {
		var want []switchnet.Flow
		for {
			f, ok := ref[i].Next()
			if !ok {
				break
			}
			want = append(want, f)
		}
		if err := ref[i].Err(); err != nil {
			t.Fatal(err)
		}
		var got []switchnet.Flow
		var buf []switchnet.Flow
		for round := 0; len(got) < len(want); round++ {
			buf = alt[i].PullBatch(buf[:0], round, len(want)+1)
			for _, f := range buf {
				if f.Release > round {
					t.Fatalf("source %d: batch at round %d leaked release %d", i, round, f.Release)
				}
			}
			got = append(got, buf...)
			if round > 1000 {
				t.Fatalf("source %d: batches stalled with %d of %d flows", i, len(got), len(want))
			}
		}
		if err := alt[i].Err(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("source %d: batched %d flows, want %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("source %d flow %d: batch %+v != next %+v", i, k, got[k], want[k])
			}
		}
		if _, ok := alt[i].Next(); ok {
			t.Fatalf("source %d: flows left after full batch drain", i)
		}
	}
}

// TestPullBatchHonorsMaxAndPeek: max caps a batch, and a record read past
// the round horizon is not lost — Seq holds it back and it surfaces on the
// next call.
func TestPullBatchHonorsMaxAndPeek(t *testing.T) {
	trace := "0,0,1,1\n0,1,2,1\n0,2,3,1\n3,3,3,1\n"
	src := NewTraceSource(strings.NewReader(trace), switchnet.UnitSwitch(5))
	if got := len(src.PullBatch(nil, 0, 2)); got != 2 {
		t.Fatalf("max=2 batch returned %d flows", got)
	}
	// The rest of round 0, then the horizon stops short of release 3.
	if got := len(src.PullBatch(nil, 2, 10)); got != 1 {
		t.Fatalf("horizon batch returned %d flows, want 1", got)
	}
	if got := len(src.PullBatch(nil, 2, 10)); got != 0 {
		t.Fatalf("exhausted horizon returned %d flows, want 0", got)
	}
	// The peeked release-3 record must still arrive intact via Next.
	f, ok := src.Next()
	if !ok || f.Release != 3 || f.In != 3 {
		t.Fatalf("peeked record lost: %+v ok=%v", f, ok)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("trace yielded past its end")
	}
	if src.Err() != nil {
		t.Fatal(src.Err())
	}
}

func TestArrivalSourceRejectsBadConfig(t *testing.T) {
	src := NewArrivalSource(ArrivalConfig{Ports: 0, M: 1}, rand.New(rand.NewSource(1)))
	if _, ok := src.Next(); ok {
		t.Fatal("bad config yielded a flow")
	}
	if src.Err() == nil {
		t.Fatal("bad config reported no error")
	}
}

func TestBoundedParetoBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		v := BoundedPareto(rng, 1.5, 2, 64)
		if v < 2 || v > 64 {
			t.Fatalf("sample %d outside [2,64]", v)
		}
	}
	if v := BoundedPareto(rng, 1.5, 5, 5); v != 5 {
		t.Fatalf("degenerate range returned %d", v)
	}
	if v := BoundedPareto(rng, 1.5, 5, 3); v != 5 {
		t.Fatalf("inverted range returned %d", v)
	}
}

// TestBoundedParetoTail: a heavier tail (smaller alpha) must raise the
// sample mean.
func TestBoundedParetoTail(t *testing.T) {
	mean := func(alpha float64) float64 {
		rng := rand.New(rand.NewSource(3))
		s := 0
		for i := 0; i < 20000; i++ {
			s += BoundedPareto(rng, alpha, 1, 1<<16)
		}
		return float64(s) / 20000
	}
	light, heavy := mean(3), mean(0.8)
	if heavy <= light {
		t.Fatalf("alpha=0.8 mean %.2f not heavier than alpha=3 mean %.2f", heavy, light)
	}
}

// TestTraceSourceMatchesReadTrace: streaming a sorted trace must yield
// exactly what the batch reader loads.
func TestTraceSourceMatchesReadTrace(t *testing.T) {
	cfg := PoissonConfig{M: 5, T: 6, Ports: 4}
	inst := cfg.Generate(rand.New(rand.NewSource(5))) // release-sorted by construction
	var buf bytes.Buffer
	if err := WriteTrace(&buf, inst); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	batch, err := ReadTrace(bytes.NewReader(data), inst.Switch)
	if err != nil {
		t.Fatal(err)
	}
	src := NewTraceSource(bytes.NewReader(data), inst.Switch)
	var streamed []switchnet.Flow
	for {
		f, ok := src.Next()
		if !ok {
			break
		}
		streamed = append(streamed, f)
	}
	if src.Err() != nil {
		t.Fatal(src.Err())
	}
	if len(streamed) != batch.N() {
		t.Fatalf("streamed %d flows, batch read %d", len(streamed), batch.N())
	}
	for i, f := range streamed {
		if f != batch.Flows[i] {
			t.Fatalf("flow %d: streamed %+v, batch %+v", i, f, batch.Flows[i])
		}
	}
}

func TestTraceSourceRejects(t *testing.T) {
	cases := []struct{ name, trace string }{
		{"unsorted", "release,in,out,demand\n3,0,0,1\n1,0,1,1\n"},
		{"bad port", "0,9,0,1\n"},
		{"bad demand", "0,0,0,7\n"},
		{"bad field", "0,0,zero,1\n"},
		{"wrong arity", "0,0,1\n"},
	}
	for _, tc := range cases {
		src := NewTraceSource(strings.NewReader(tc.trace), switchnet.UnitSwitch(2))
		for {
			if _, ok := src.Next(); !ok {
				break
			}
		}
		if src.Err() == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestInstanceSourceOrder(t *testing.T) {
	inst := &switchnet.Instance{
		Switch: switchnet.UnitSwitch(2),
		Flows: []switchnet.Flow{
			{In: 0, Out: 0, Demand: 1, Release: 4},
			{In: 1, Out: 1, Demand: 1, Release: 0},
			{In: 0, Out: 1, Demand: 1, Release: 4},
		},
	}
	src := NewInstanceSource(inst)
	want := []int{1, 0, 2} // sorted by (release, index)
	for k, idx := range src.Order() {
		if idx != want[k] {
			t.Fatalf("order[%d] = %d, want %d", k, idx, want[k])
		}
	}
	lastRel := 0
	n := 0
	for {
		f, ok := src.Next()
		if !ok {
			break
		}
		if f.Release < lastRel {
			t.Fatalf("release %d after %d", f.Release, lastRel)
		}
		lastRel = f.Release
		n++
	}
	if n != inst.N() {
		t.Fatalf("yielded %d flows, want %d", n, inst.N())
	}
}

// TestInstanceSourceOrderSkipsSortWhenSorted: an instance already in
// release order keeps the identity order (the sort is skipped), and every
// instance — sorted, reversed, shuffled, with release ties — gets the
// order a stable sort by release gives.
func TestInstanceSourceOrderSkipsSortWhenSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := range 200 {
		n := rng.Intn(40)
		flows := make([]switchnet.Flow, n)
		for i := range flows {
			flows[i] = switchnet.Flow{In: rng.Intn(3), Out: rng.Intn(3), Demand: 1, Release: rng.Intn(6)}
		}
		switch trial % 3 {
		case 0:
			slices.SortStableFunc(flows, func(a, b switchnet.Flow) int { return a.Release - b.Release })
		case 1:
			slices.SortStableFunc(flows, func(a, b switchnet.Flow) int { return b.Release - a.Release })
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return flows[want[a]].Release < flows[want[b]].Release })
		got := NewInstanceSource(&switchnet.Instance{Switch: switchnet.UnitSwitch(3), Flows: flows}).Order()
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: Order() = %v, want %v", trial, got, want)
		}
		if trial%3 == 0 {
			for k, idx := range got {
				if idx != k {
					t.Fatalf("trial %d: sorted instance reordered: Order() = %v", trial, got)
				}
			}
		}
	}
}
