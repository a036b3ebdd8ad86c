// Package stats holds the trial summaries the experiment harness prints
// (Mean, Max) and the response-time sketches the streaming runtime keeps
// (LogHistogram, EpochWindow). WindowQuantiles, EpochWindow's
// single-threaded oracle, lives in the package's tests.
package stats

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
