package stream

import (
	"math/rand"
	"testing"

	"flowsched/internal/workload"
)

// BenchmarkOldestFirstPick times one scheduling round of an OldestFirst
// runtime pinned at a resident backlog — the paper's 150-port switch,
// Poisson arrivals at twice what it can serve — and reports beside
// ns/round the entries its pick examined per round (K=1 calls Pick once
// a round). The cap1 rungs up to 64k are drain_age's regime at a thin,
// the benchmark's and a deep backlog, picked on the window, where an
// entry is an input's bitmap of heads at one release. cap1_wide's
// backlog spans more releases than the window holds, so it picks on the
// lists (the rung fails if the window picks), as the cap8 rung does with
// multi-unit demands, whose served heads' successors re-enter them; there
// an entry is a list entry.
func BenchmarkOldestFirstPick(b *testing.B) {
	for _, rung := range pickRungs {
		b.Run(rung.name, func(b *testing.B) {
			pol := &OldestFirst{}
			step := pinnedRuntime(b, pol, rung.cap, rung.backlog)
			if rung.wide && pol.windowed() {
				b.Fatalf("a backlog of %d picks on the window: want its span past the window's %d slots", rung.backlog, ofMaxSlots)
			}
			visited := pol.visited
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(pol.visited-visited)/float64(b.N), "entries/round")
		})
	}
}

// BenchmarkRoundRobinPick times one scheduling round of a RoundRobin
// runtime on the same rungs (ns/op is ns/round): the deep cap1 rungs are
// drain_deep's regime, picked by the unit path, whose decide pass reads
// only the VOQ and free-output bitmaps and whose commit pass then takes
// the matched heads, their record loads independent of one another; the
// cap8 rung runs the general sweep, which reads each served head's
// record before it moves on.
func BenchmarkRoundRobinPick(b *testing.B) {
	for _, rung := range pickRungs {
		b.Run(rung.name, func(b *testing.B) {
			step := pinnedRuntime(b, &RoundRobin{}, rung.cap, rung.backlog)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// pickRungs are the pick benchmarks' shapes: unit ports at a thin, the
// benchmark's and a deep backlog, unit ports at a backlog whose releases
// span past ofMaxSlots (wide), and capacity-8 ports with multi-unit
// demands.
var pickRungs = []struct {
	name         string
	cap, backlog int
	wide         bool
}{
	{"cap1_2k", 1, 1 << 11, false},
	{"cap1_16k", 1, 1 << 14, false},
	{"cap1_64k", 1, 1 << 16, false},
	{"cap1_wide", 1, 1 << 19, true},
	{"cap8_16k", 8, 1 << 14, false},
}

// pinnedRuntime builds a runtime under pol on the paper's 150-port switch
// with Poisson arrivals at twice what it can serve, fills it to backlog
// resident flows, lets head ages settle, and returns a function that runs
// one round.
func pinnedRuntime(b *testing.B, pol Policy, cap, backlog int) func() {
	const ports = 150
	src := workload.NewArrivalSource(workload.ArrivalConfig{
		Ports: ports, Cap: cap, M: 2 * ports, MaxDemand: cap,
	}, rand.New(rand.NewSource(1)))
	rt, err := New(src, Config{Switch: src.Switch(), Policy: pol, MaxPending: backlog})
	if err != nil {
		b.Fatal(err)
	}
	step := func() {
		if _, err := rt.step(); err != nil {
			b.Fatal(err)
		}
	}
	for rt.peak < backlog {
		step()
	}
	for i := 0; i < 512; i++ {
		step()
	}
	return step
}
