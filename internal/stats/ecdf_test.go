package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("F(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.N() != 4 {
		t.Fatalf("N = %d", e.N())
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(3) != 0 {
		t.Fatal("empty ECDF must be 0 everywhere")
	}
	if !math.IsNaN(e.Quantile(0.5)) {
		t.Fatal("empty ECDF quantile must be NaN")
	}
	xs, fs := e.Points()
	if xs != nil || fs != nil {
		t.Fatal("empty ECDF must have no points")
	}
}

func TestECDFPointsDeduplicated(t *testing.T) {
	e := NewECDF([]float64{5, 5, 5, 7})
	xs, fs := e.Points()
	if len(xs) != 2 || xs[0] != 5 || xs[1] != 7 {
		t.Fatalf("points xs = %v", xs)
	}
	if !almostEqual(fs[0], 0.75, 1e-12) || fs[1] != 1 {
		t.Fatalf("points fs = %v", fs)
	}
}

func TestECDFQuantileInverse(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40, 50})
	if got := e.Quantile(0); got != 10 {
		t.Fatalf("Q(0) = %v", got)
	}
	if got := e.Quantile(1); got != 50 {
		t.Fatalf("Q(1) = %v", got)
	}
	if got := e.Quantile(0.5); !almostEqual(got, 30, 1e-12) {
		t.Fatalf("Q(0.5) = %v", got)
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(10)
	for _, tm := range []float64{0, 5, 9.99, 10, 25, 25, -3} {
		ts.Record(tm)
	}
	counts := ts.Counts()
	want := []int{3, 1, 2}
	if len(counts) != len(want) {
		t.Fatalf("counts = %v", counts)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts := NewTimeSeries(1)
	if ts.Counts() != nil {
		t.Fatal("empty series must return nil")
	}
	if ts.CoefficientOfVariation() != 0 {
		t.Fatal("empty series CV must be 0")
	}
}

func TestTimeSeriesCVSeparatesBurstyFromSteady(t *testing.T) {
	steady := NewTimeSeries(10)
	bursty := NewTimeSeries(10)
	for i := 0; i < 1000; i++ {
		steady.Record(float64(i)) // one per second, uniform
	}
	for i := 0; i < 1000; i++ {
		// All arrivals crowd into the first 5% of the horizon, then
		// a trickle: flash-crowd-like.
		if i < 950 {
			bursty.Record(float64(i) * 0.05)
		} else {
			bursty.Record(float64(i))
		}
	}
	if bursty.CoefficientOfVariation() <= steady.CoefficientOfVariation() {
		t.Fatalf("CV bursty %v should exceed steady %v",
			bursty.CoefficientOfVariation(), steady.CoefficientOfVariation())
	}
}

// Property: ECDF is monotone non-decreasing and bounded in [0,1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []int8, probe []int8) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		e := NewECDF(xs)
		prev := -1.0
		for _, p := range probe {
			v := e.At(float64(p))
			if v < 0 || v > 1 {
				return false
			}
		}
		for x := -128.0; x <= 128; x += 8 {
			v := e.At(x)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
