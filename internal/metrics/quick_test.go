package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// clamp maps arbitrary generated floats into a finite, well-behaved series;
// testing/quick generates values across the full float64 range, and the
// statistical properties below are only specified for finite inputs.
func clamp(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		out = append(out, math.Mod(x, 1e9))
	}
	return out
}

// TestQuickPercentileBrackets: any quantile of a sorted series is bracketed
// by the series' min and max, and the extreme quantiles hit them exactly.
func TestQuickPercentileBrackets(t *testing.T) {
	prop := func(raw []float64, pRaw uint16) bool {
		xs := clamp(raw)
		if len(xs) == 0 {
			return math.IsNaN(Percentile(xs, 0.5))
		}
		sort.Float64s(xs)
		p := float64(pRaw) / math.MaxUint16
		q := Percentile(xs, p)
		if q < xs[0] || q > xs[len(xs)-1] {
			return false
		}
		return Percentile(xs, 0) == xs[0] && Percentile(xs, 1) == xs[len(xs)-1]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSummarizeConsistent: Summarize's fields respect their own
// definitions on any finite series — min ≤ median ≤ p95 ≤ max, the mean is
// bracketed by min and max, and Std is non-negative.
func TestQuickSummarizeConsistent(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := clamp(raw)
		s := Summarize(xs)
		if len(xs) == 0 {
			return s == Summary{}
		}
		if s.N != len(xs) || s.Std < 0 {
			return false
		}
		eps := 1e-9 * (math.Abs(s.Min) + math.Abs(s.Max) + 1)
		if s.Mean < s.Min-eps || s.Mean > s.Max+eps {
			return false
		}
		return s.Min <= s.Median && s.Median <= s.P95 && s.P95 <= s.Max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
