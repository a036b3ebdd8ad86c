package stats

import "math/bits"

// Quantile sketching for the streaming runtime: response times arrive as an
// unbounded sequence of non-negative integers, and the runtime needs
// sliding-window quantiles in bounded memory. LogHistogram is an HDR-style
// log-linear histogram (exact below sketchLinear, then sketchLinear
// sub-buckets per power of two, so quantiles carry at most 1/sketchLinear
// relative error). Sketches merge in O(buckets), which EpochWindow uses to
// rotate fixed-size sub-window shards.

// sketchLinear is the number of exact low buckets and of sub-buckets per
// octave. It must be a power of two.
const sketchLinear = 16

// sketchLog2 is log2(sketchLinear).
const sketchLog2 = 4

// LogHistogram is a bounded-memory, mergeable quantile sketch over
// non-negative integers. The zero value is an empty sketch ready to use.
type LogHistogram struct {
	n      uint64
	counts []uint64
}

// sketchBucket maps a value to its bucket index.
func sketchBucket(v uint64) int {
	if v < sketchLinear {
		return int(v)
	}
	k := bits.Len64(v) - 1 // v in [2^k, 2^(k+1)), k >= sketchLog2
	sub := (v - 1<<k) >> (k - sketchLog2)
	return sketchLinear + (k-sketchLog2)*sketchLinear + int(sub)
}

// sketchValue returns the midpoint of bucket i, the value reported for any
// observation that landed in it.
func sketchValue(i int) float64 {
	if i < sketchLinear {
		return float64(i)
	}
	k := (i-sketchLinear)/sketchLinear + sketchLog2
	sub := uint64((i - sketchLinear) % sketchLinear)
	width := uint64(1) << (k - sketchLog2)
	lo := uint64(1)<<k + sub*width
	return float64(lo) + float64(width-1)/2
}

// Add incorporates one observation; negative values count as zero.
func (h *LogHistogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	b := sketchBucket(uint64(v))
	if b >= len(h.counts) {
		grown := make([]uint64, b+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[b]++
	h.n++
}

// N returns the number of observations.
func (h *LogHistogram) N() uint64 { return h.n }

// Reset empties the sketch, retaining its bucket storage.
func (h *LogHistogram) Reset() {
	h.n = 0
	for i := range h.counts {
		h.counts[i] = 0
	}
}

// Grow preallocates bucket storage to cover observations up to max, so
// subsequent Add calls for values of that magnitude never reallocate. The
// streaming runtime uses it to keep its per-round record path allocation
// free; growing to cover all of int costs under 8KB.
func (h *LogHistogram) Grow(max int) {
	if max < 0 {
		max = 0
	}
	if b := sketchBucket(uint64(max)); b >= len(h.counts) {
		grown := make([]uint64, b+1)
		copy(grown, h.counts)
		h.counts = grown
	}
}

// Merge adds all of o's observations into h.
func (h *LogHistogram) Merge(o *LogHistogram) {
	if len(o.counts) > len(h.counts) {
		grown := make([]uint64, len(o.counts))
		copy(grown, h.counts)
		h.counts = grown
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Quantile returns the q-quantile (0 <= q <= 1) of the observed values, up
// to the sketch's bucket resolution; 0 for an empty sketch.
func (h *LogHistogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank in [1, n]: the smallest bucket whose cumulative count reaches it.
	rank := uint64(q*float64(h.n-1)) + 1
	cum := uint64(0)
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return sketchValue(i)
		}
	}
	return sketchValue(len(h.counts) - 1)
}
