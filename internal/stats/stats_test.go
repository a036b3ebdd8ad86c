package stats

import "testing"

func TestMeanMaxMin(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Mean(xs) != 2.8 {
		t.Errorf("mean = %v", Mean(xs))
	}
	if Max(xs) != 5 {
		t.Errorf("max = %v", Max(xs))
	}
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-slice defaults wrong")
	}
}
