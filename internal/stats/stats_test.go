package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Count != 5 || !almostEqual(s.Mean, 3) || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	if !almostEqual(s.P50, 3) {
		t.Errorf("P50 = %g", s.P50)
	}
	if !almostEqual(s.StdDev, math.Sqrt(2)) {
		t.Errorf("StdDev = %g, want sqrt(2)", s.StdDev)
	}
	empty := Summarize(nil)
	if empty.Count != 0 {
		t.Error("empty summary nonzero")
	}
}

func TestPercentile(t *testing.T) {
	samples := []float64{10, 20, 30, 40}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10},
		{100, 40},
		{50, 25},
		{25, 17.5},
	}
	for _, tt := range tests {
		if got := Percentile(samples, tt.p); !almostEqual(got, tt.want) {
			t.Errorf("Percentile(%g) = %g, want %g", tt.p, got, tt.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile not NaN")
	}
	if !math.IsNaN(Percentile(samples, 101)) {
		t.Error("out-of-range percentile not NaN")
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("single-sample percentile = %g", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	samples := []float64{3, 1, 2}
	_ = Percentile(samples, 50)
	if samples[0] != 3 {
		t.Error("Percentile sorted the caller's slice")
	}
}

func TestCDF(t *testing.T) {
	points := CDF([]float64{1, 2, 2, 3})
	if len(points) != 3 {
		t.Fatalf("points = %v, want dedup to 3", points)
	}
	if points[0].Value != 1 || !almostEqual(points[0].Fraction, 0.25) {
		t.Errorf("first = %+v", points[0])
	}
	if points[1].Value != 2 || !almostEqual(points[1].Fraction, 0.75) {
		t.Errorf("dedup kept wrong fraction: %+v", points[1])
	}
	if points[2].Fraction != 1 {
		t.Errorf("last fraction = %g", points[2].Fraction)
	}
	if CDF(nil) != nil {
		t.Error("empty CDF not nil")
	}
}

func TestCDFAt(t *testing.T) {
	samples := []float64{1, 2, 3, 4}
	for x, want := range map[float64]float64{0: 0, 1: 0.25, 2.5: 0.5, 4: 1, 9: 1} {
		if got := CDFAt(samples, x); !almostEqual(got, want) {
			t.Errorf("CDFAt(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				raw[i] = 0
			}
		}
		points := CDF(raw)
		prevV, prevF := math.Inf(-1), 0.0
		for _, p := range points {
			if p.Value <= prevV || p.Fraction < prevF {
				return false
			}
			prevV, prevF = p.Value, p.Fraction
		}
		return len(raw) == 0 || points[len(points)-1].Fraction == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReductionPercent(t *testing.T) {
	if got := ReductionPercent(100, 60); !almostEqual(got, 40) {
		t.Errorf("ReductionPercent = %g", got)
	}
	if got := ReductionPercent(100, 120); !almostEqual(got, -20) {
		t.Errorf("negative reduction = %g", got)
	}
	if got := ReductionPercent(0, 5); got != 0 {
		t.Errorf("zero base = %g", got)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 10 {
		t.Errorf("histogram lost samples: %d", total)
	}
	if h.Counts[4] == 0 {
		t.Error("max sample not in last bin")
	}
	if _, err := NewHistogram(nil, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if h, err := NewHistogram(nil, 3); err != nil || len(h.Counts) != 3 {
		t.Error("empty histogram mishandled")
	}
}

// TestSummarizeLargeOffset is the regression test for catastrophic
// cancellation: samples with a large common offset must keep their
// spread. 1e9+{0..4} has the same standard deviation as {0..4},
// √2 ≈ 1.414; the naive sqsum/n − mean² form collapses it to 0 (or
// goes negative) in float64.
func TestSummarizeLargeOffset(t *testing.T) {
	samples := []float64{1e9, 1e9 + 1, 1e9 + 2, 1e9 + 3, 1e9 + 4}
	s := Summarize(samples)
	want := math.Sqrt(2)
	if math.Abs(s.StdDev-want) > 1e-6 {
		t.Errorf("StdDev = %v, want %v (catastrophic cancellation?)", s.StdDev, want)
	}
	if s.Mean != 1e9+2 {
		t.Errorf("Mean = %v, want %v", s.Mean, 1e9+2)
	}
}

func TestSummarizeP999(t *testing.T) {
	samples := make([]float64, 10000)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	s := Summarize(samples)
	if s.P999 < 9990 || s.P999 > 10000 {
		t.Fatalf("P999 = %g, want ~9991", s.P999)
	}
}

// TestSummarizeSubUnitSamples: samples below one keep their precision —
// no bucketing rounds them to zero.
func TestSummarizeSubUnitSamples(t *testing.T) {
	s := Summarize([]float64{0.5, 0.1, 0.3, 0.2, 0.4})
	if s.Min != 0.1 || s.Max != 0.5 || !almostEqual(s.Mean, 0.3) || !almostEqual(s.P50, 0.3) {
		t.Errorf("summary = %+v, want min 0.1, max 0.5, mean and P50 0.3", s)
	}
	if !almostEqual(s.StdDev, math.Sqrt(0.02)) {
		t.Errorf("StdDev = %g, want %g", s.StdDev, math.Sqrt(0.02))
	}
}

func TestCDFEmpty(t *testing.T) {
	if pts := CDF(nil); pts != nil {
		t.Errorf("CDF(nil) = %v, want nil", pts)
	}
	if got := CDFAt(nil, 1); !math.IsNaN(got) {
		t.Errorf("CDFAt(nil, 1) = %g, want NaN", got)
	}
}
