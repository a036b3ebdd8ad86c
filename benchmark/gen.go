package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"

	"flowsched"
)

// The benchmark owns its inputs: every draw below comes from one
// rand.New(rand.NewSource(seed)) stream through this file's own samplers,
// never through internal/workload's generators, so a later change to the
// program's generators cannot change what the benchmark feeds it.

// poisson draws a Poisson(lambda) variate by Knuth's product method, in
// chunks of at most 64 so exp(-chunk) stays far from underflow.
func poisson(r *rand.Rand, lambda float64) int {
	total := 0
	for lambda > 0 {
		chunk := math.Min(lambda, 64)
		lambda -= chunk
		limit := math.Exp(-chunk)
		for p := r.Float64(); p > limit; p *= r.Float64() {
			total++
		}
	}
	return total
}

// boundedPareto draws an integer demand in [lo, hi]: the continuous
// bounded Pareto(alpha) on [lo, hi+1) by inverse CDF, floored.
func boundedPareto(r *rand.Rand, alpha float64, lo, hi int) int {
	l, h := float64(lo), float64(hi)+1
	x := l / math.Pow(1-r.Float64()*(1-math.Pow(l/h, alpha)), 1/alpha)
	return min(max(int(x), lo), hi)
}

// genUnitPoisson returns exactly n unit flows on a ports x ports switch:
// Poisson(m) arrivals per round with uniform endpoints, in release order.
func genUnitPoisson(r *rand.Rand, n, ports int, m float64) []flowsched.Flow {
	flows := make([]flowsched.Flow, 0, n)
	for t := 0; len(flows) < n; t++ {
		for k := poisson(r, m); k > 0 && len(flows) < n; k-- {
			flows = append(flows, flowsched.Flow{In: r.Intn(ports), Out: r.Intn(ports), Demand: 1, Release: t})
		}
	}
	return flows
}

// paretoMean is the exact mean of boundedPareto(alpha, lo, hi).
func paretoMean(alpha float64, lo, hi int) float64 {
	l, h := float64(lo), float64(hi)+1
	cdf := func(x float64) float64 { return (1 - math.Pow(l/x, alpha)) / (1 - math.Pow(l/h, alpha)) }
	mean := 0.0
	for k := lo; k <= hi; k++ {
		mean += float64(k) * (cdf(float64(k+1)) - cdf(float64(k)))
	}
	return mean
}

// skewSpec is the steady_skew arrival model: bounded-Pareto demands on a
// capacity-cap switch, uniform inputs, and the first hot outputs loaded to
// hotUtil while the mean port utilisation stays at util.
type skewSpec struct {
	ports, cap int
	alpha      float64
	dmax       int
	util       float64
	hot        int
	hotUtil    float64
}

// genSkew returns exactly n flows under spec, in release order.
func genSkew(r *rand.Rand, n int, s skewSpec) []flowsched.Flow {
	demandPerRound := s.util * float64(s.ports*s.cap)
	perRound := demandPerRound / paretoMean(s.alpha, 1, s.dmax)
	pHot := s.hotUtil * float64(s.hot*s.cap) / demandPerRound

	flows := make([]flowsched.Flow, 0, n)
	for t := 0; len(flows) < n; t++ {
		for k := poisson(r, perRound); k > 0 && len(flows) < n; k-- {
			out := s.hot + r.Intn(s.ports-s.hot)
			if r.Float64() < pHot {
				out = r.Intn(s.hot)
			}
			flows = append(flows, flowsched.Flow{
				In: r.Intn(s.ports), Out: out,
				Demand: boundedPareto(r, s.alpha, 1, s.dmax), Release: t,
			})
		}
	}
	return flows
}

// genOffline returns count paper-model instances (Section 5.2.1): a unit
// ports x ports switch and, per instance, exactly flows unit flows with
// uniform endpoints and releases uniform on [0, rounds) — a Poisson
// arrival process conditioned on its count, so every seed solves LPs of
// the same size and the run-to-run cost spread stays inside the bounds.
func genOffline(r *rand.Rand, count, ports, rounds, flows int) []*flowsched.Instance {
	insts := make([]*flowsched.Instance, count)
	for i := range insts {
		fl := make([]flowsched.Flow, flows)
		for j := range fl {
			fl[j] = flowsched.Flow{In: r.Intn(ports), Out: r.Intn(ports), Demand: 1, Release: r.Intn(rounds)}
		}
		insts[i] = &flowsched.Instance{Switch: flowsched.UnitSwitch(ports), Flows: fl}
	}
	return insts
}

// flowHash is the FNV-1a hash of the first 4096 flows, pinned by the
// generator golden test.
func flowHash(flows []flowsched.Flow) uint64 {
	h := fnv.New64a()
	var buf [32]byte
	for _, f := range flows[:min(len(flows), 4096)] {
		binary.LittleEndian.PutUint64(buf[0:], uint64(f.In))
		binary.LittleEndian.PutUint64(buf[8:], uint64(f.Out))
		binary.LittleEndian.PutUint64(buf[16:], uint64(f.Demand))
		binary.LittleEndian.PutUint64(buf[24:], uint64(f.Release))
		h.Write(buf[:])
	}
	return h.Sum64()
}
