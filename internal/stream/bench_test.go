package stream

import (
	"math/rand"
	"testing"

	"flowsched/internal/workload"
)

// BenchmarkOldestFirstPick times one scheduling round of an OldestFirst
// runtime pinned at a resident backlog — the paper's 150-port switch,
// Poisson arrivals at twice what it can serve — and reports beside
// ns/round the list entries its merge examined per round (K=1 calls Pick
// once a round). The cap1 rungs are drain_age's regime at a thin, the
// benchmark's and a deep backlog; the cap8 rung carries multi-unit
// demands, where served heads' successors re-enter the lists.
func BenchmarkOldestFirstPick(b *testing.B) {
	for _, rung := range pickRungs {
		b.Run(rung.name, func(b *testing.B) {
			pol := &OldestFirst{}
			step := pinnedRuntime(b, pol, rung.cap, rung.backlog)
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
// drain_deep's regime, where most outputs saturate early in the pick and
// the masked sweep stops reading their VOQs.
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
// benchmark's and a deep backlog, and capacity-8 ports with multi-unit
// demands.
var pickRungs = []struct {
	name         string
	cap, backlog int
}{
	{"cap1_2k", 1, 1 << 11},
	{"cap1_16k", 1, 1 << 14},
	{"cap1_64k", 1, 1 << 16},
	{"cap8_16k", 8, 1 << 14},
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
