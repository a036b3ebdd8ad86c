package workload

import (
	"math"
	"math/rand"
)

// Heavy-tailed flow sizes. Datacenter flow-size distributions are famously
// heavy-tailed (most flows are mice, most bytes live in elephants), so the
// arrival sources draw per-flow demands from a bounded Pareto.

// BoundedPareto draws an integer from the bounded Pareto(alpha)
// distribution on [lo, hi] by inverse-CDF sampling. alpha <= 0 is treated
// as 1; hi <= lo collapses to the point mass at lo.
func BoundedPareto(rng *rand.Rand, alpha float64, lo, hi int) int {
	if lo < 1 {
		lo = 1
	}
	if hi <= lo {
		return lo
	}
	if alpha <= 0 {
		alpha = 1
	}
	// Sample the continuous bounded Pareto on [lo, hi+1) and floor, so every
	// integer in [lo, hi] has positive mass.
	l, h := float64(lo), float64(hi)+1
	u := rng.Float64()
	x := l / math.Pow(1-u*(1-math.Pow(l/h, alpha)), 1/alpha)
	v := int(x)
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}
