package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // unsorted on purpose
	}
	return s
}

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {25, 1.75}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", s, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 90); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// TestTailPercentileKeepsTenBeyond checks the reporting rule: the tail
// percentile is the wanted one when at least ten samples lie beyond it,
// else the highest one that has ten beyond it, and never below the
// median.
func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n        int
		wantUsed float64
	}{
		{1000, 90},
		{100, 90},
		{50, 80},
		{25, 60},
		{20, 50},
		{12, 50},
		{1, 50},
	} {
		s := seq(c.n)
		used, v := tailPercentile(s, 90)
		if math.Abs(used-c.wantUsed) > 1e-9 {
			t.Errorf("n=%d: used p%v, want p%v", c.n, used, c.wantUsed)
		}
		if v != percentile(s, used) {
			t.Errorf("n=%d: value %v is not p%v", c.n, v, used)
		}
		if c.n >= 2*minBeyond && countAbove(s, v) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, countAbove(s, v), used)
		}
	}
}

func TestRatioOfEmptyBaseIsZero(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	if got := ratio(3, 2); got != 1.5 {
		t.Errorf("ratio(3, 2) = %v, want 1.5", got)
	}
}
