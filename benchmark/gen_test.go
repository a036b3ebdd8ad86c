package main

import (
	"math"
	"math/rand"
	"testing"

	"flowsched"
)

// workloadFlows is the flow stream a workload's generator feeds the
// program at seed, flattened for hashing.
func workloadFlows(w *workload, seed int64) []flowsched.Flow {
	switch w.kind {
	case kindDaemon:
		return genIngest(seed, 4096, w.ports)
	case kindOffline:
		var flows []flowsched.Flow
		for _, inst := range genOffline(rand.New(rand.NewSource(seed)), w.instances, w.ports, w.rounds, w.perInstance) {
			flows = append(flows, inst.Flows...)
		}
		return flows
	}
	return w.generate(seed, 4096)
}

// TestGeneratorGolden pins the first 4096 flows of every workload at seed
// 1: the benchmark's inputs may not change under a later PR, or its
// numbers stop being comparable with the recorded ones.
func TestGeneratorGolden(t *testing.T) {
	golden := map[string]uint64{
		"drain_deep":     0xed46844d08b50570,
		"drain_verified": 0xed46844d08b50570,
		"drain_age":      0xed46844d08b50570,
		"drain_age_k2":   0xed46844d08b50570,
		"steady_skew":    0xe9cc2e28a0b9d9f1,
		"daemon_ingest":  0x16f21f91b3926a96,
		"offline_paper":  0x7704ae3bcdd9c5a3,
	}
	for i := range workloads {
		w := &workloads[i]
		got := flowHash(workloadFlows(w, 1))
		if want, ok := golden[w.name]; !ok || got != want {
			t.Errorf("%s: seed 1 hashes to %#x, golden %#x", w.name, got, want)
		}
		if again := flowHash(workloadFlows(w, 1)); again != got {
			t.Errorf("%s: the same seed gave different flows", w.name)
		}
		if other := flowHash(workloadFlows(w, 2)); other == got {
			t.Errorf("%s: seeds 1 and 2 gave the same flows", w.name)
		}
	}
}

// TestGeneratorShape checks the properties the workload table promises.
func TestGeneratorShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const draws = 20000
	sum := 0
	for i := 0; i < draws; i++ {
		sum += poisson(rng, 300)
	}
	if got := float64(sum) / draws; math.Abs(got-300) > 0.5 {
		t.Errorf("poisson(300) mean = %v", got)
	}
	sum = 0
	for i := 0; i < draws; i++ {
		d := boundedPareto(rng, 1.3, 1, 8)
		if d < 1 || d > 8 {
			t.Fatalf("boundedPareto out of [1, 8]: %d", d)
		}
		sum += d
	}
	if got, want := float64(sum)/draws, paretoMean(1.3, 1, 8); math.Abs(got-want) > 0.02 {
		t.Errorf("boundedPareto mean = %v, exact mean %v", got, want)
	}

	w := workloadByName("steady_skew")
	flows := w.generate(3, 1<<18)
	sw := w.fabric()
	load := make([]int, w.ports)
	for i, f := range flows {
		if err := sw.ValidateFlow(f); err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
		if i > 0 && f.Release < flows[i-1].Release {
			t.Fatalf("flow %d released before its predecessor", i)
		}
		load[f.Out] += f.Demand
	}
	rounds := float64(flows[len(flows)-1].Release + 1)
	var hot, cold float64
	for out, l := range load {
		util := float64(l) / (rounds * float64(w.cap))
		if util >= 1 {
			t.Errorf("output %d is offered %.3f of its capacity: the workload must stay below saturation", out, util)
		}
		if out < w.skew.hot {
			hot += util / float64(w.skew.hot)
		} else {
			cold += util / float64(w.ports-w.skew.hot)
		}
	}
	wantCold := (w.skew.util*float64(w.ports) - w.skew.hotUtil*float64(w.skew.hot)) / float64(w.ports-w.skew.hot)
	if math.Abs(hot-w.skew.hotUtil) > 0.02 || math.Abs(cold-wantCold) > 0.02 {
		t.Errorf("mean utilisation hot %.3f cold %.3f, want %.3f and %.3f", hot, cold, w.skew.hotUtil, wantCold)
	}
}
