package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"flowsched/internal/lp"
)

// kernelGolden is the FNV-1a hash TestKernelFingerprint expects. It was
// recorded before the simplex walked FTRAN's nonzero list and read its hot
// arrays through sized locals, and that kernel left it unchanged.
const kernelGolden uint64 = 0x5c59af7ab52794a8

// TestKernelFingerprint pins what the simplex kernel computes bit for bit
// over a family of paper-model instances: LP (1)-(4)'s optimum (its bits),
// pivots and stage counts, SolveART's schedule and pivots, and SolveMRT's
// rho, schedule and search stats. TestPaperModelGolden pins optima that any
// correct kernel reaches; this pins the path. A kernel change that reorders
// one floating-point operation moves a pivot, a vertex or a count somewhere
// in the family, and the hash with it. The family is the benchmark
// generator's shape at three sizes, seeds 1-6, 16 instances each.
func TestKernelFingerprint(t *testing.T) {
	if raceEnabled {
		t.Skip("several seconds of solves; -race computes the same floats")
	}
	shapes := []struct{ ports, flows, rounds int }{{5, 25, 5}, {8, 60, 6}, {10, 100, 10}}
	h := fnv.New64a()
	var buf []byte
	put := func(vs ...int) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	putStats := func(st lp.Stats) {
		put(st.Rows, st.Cols, st.Nonzeros, st.Phase1Pivots, st.Phase2Pivots, st.BoundFlips,
			st.Refactors, st.PeakLUNonzeros, st.Perturbations, st.StartAtUpper, st.StartBasic)
	}
	pivots := 0
	for _, sh := range shapes {
		for seed := int64(1); seed <= 6; seed++ {
			for i, inst := range paperInstances(seed, 16, sh.ports, sh.rounds, sh.flows) {
				name := fmt.Sprintf("%dx%d_%d/seed%d/%d", sh.ports, sh.ports, sh.flows, seed, i)
				lb, err := ARTLowerBound(inst)
				if err != nil {
					t.Fatalf("%s: ARTLowerBound: %v", name, err)
				}
				art, err := SolveART(inst, 1)
				if err != nil {
					t.Fatalf("%s: SolveART: %v", name, err)
				}
				mrt, err := SolveMRT(inst)
				if err != nil {
					t.Fatalf("%s: SolveMRT: %v", name, err)
				}
				pivots += lb.Iterations
				put(int(math.Float64bits(lb.TotalResponse)), lb.Horizon, lb.Iterations)
				putStats(lb.LP)
				put(art.Schedule.Round...)
				put(art.LPIterations)
				put(mrt.Rho)
				put(mrt.Schedule.Round...)
				putStats(mrt.SearchLP)
			}
		}
	}
	h.Write(buf)
	if got := h.Sum64(); got != kernelGolden {
		t.Errorf("kernel fingerprint %#016x (%d ARTLowerBound pivots), want %#016x", got, pivots, kernelGolden)
	}
}
